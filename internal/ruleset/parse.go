package ruleset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Text ruleset format (ClassBench-compatible core, optional action suffix):
//
//	@<sip>/<len> <dip>/<len> <splo> : <sphi> <dplo> : <dphi> 0xPP/0xMM [action]
//
// where action is "PORT <n>" or "DROP"; missing actions default to PORT 0.
// '#' starts a comment; blank lines are ignored. Protocol also accepts the
// names tcp/udp/icmp and '*', and a bare value (mask 0xFF); a number is
// hexadecimal with the 0x prefix and decimal without it ("17" is UDP).
// Tokens are separated by white space as unicode.IsSpace has it. A decimal
// number is ASCII digits only, with no sign: an octet or a protocol byte is
// at most 255, a port at most 65535, a prefix length at most 32 and an
// action port at most 2^31−1.

// Parse reads a ruleset from r in the text format.
func Parse(r io.Reader) (*RuleSet, error) {
	text, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(string(text))
}

// ParseString parses a ruleset from a string: one pass over its lines,
// every number read in place, so well-formed input costs the rule slice
// and nothing per rule.
func ParseString(s string) (*RuleSet, error) {
	rules := make([]Rule, 0, strings.Count(s, "\n")+1)
	for lineNo := 1; s != ""; lineNo++ {
		line, rest, _ := strings.Cut(s, "\n")
		s = rest
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		rules = append(rules, Rule{})
		if err := parseRule(line, &rules[len(rules)-1]); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("ruleset: no rules in input")
	}
	return New(rules), nil
}

// parseRule parses a single rule line into *r, which it leaves undefined on
// an error. One scanner reads the line left to right; only a line it
// refuses is read again, token by token, to say why (ruleError). Every
// field the scanner reads is valid by construction (NewPrefix, lo <= hi, a
// port that is not negative), so the rule needs no Validate.
func parseRule(line string, r *Rule) error {
	if !strings.HasPrefix(line, "@") {
		return fmt.Errorf("ruleset: rule must start with '@': %q", line)
	}
	c := scanner{s: line, i: 1}
	var ok bool
	if r.SIP, ok = c.prefix(); ok {
		r.DIP, ok = c.prefix()
	}
	if ok {
		r.SP, ok = c.ports()
	}
	if ok {
		r.DP, ok = c.ports()
	}
	if ok {
		r.Proto, ok = c.protocol()
	}
	if ok {
		r.Action, ok = c.action()
	}
	if !ok {
		return ruleError(line)
	}
	return nil
}

// scanner is a cursor over text in the rule format. Its field readers skip
// the white space before a field, read the field in place — digits, dots,
// '/', ':' and 0x hex, ASCII bytes on the fast path — and report only
// whether it is well formed, leaving the cursor after it. A token is a
// maximal run of runes that are not white space as unicode.IsSpace has it,
// strings.Fields' rule: a byte at or above 0x80 is decoded where it
// stands, and invalid UTF-8 is not white space.
type scanner struct {
	s string
	i int
}

// asciiSpace reports whether b is one of the ASCII white-space bytes
// "\t\n\v\f\r ".
func asciiSpace(b byte) bool { return b == ' ' || b-'\t' < 5 }

// spaceRune reports whether the rune at s[i], which starts with a byte at
// or above 0x80, is white space, and its size.
func spaceRune(s string, i int) (space bool, size int) {
	r, size := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(r), size
}

// skipSpace moves the cursor past white space. Its fast path, which
// inlines, takes single spaces before printable ASCII.
func (c *scanner) skipSpace() {
	if c.i < len(c.s) && c.s[c.i] == ' ' {
		c.i++
	}
	if c.i == len(c.s) || c.s[c.i] <= ' ' || c.s[c.i] >= utf8.RuneSelf {
		c.skipSpaces()
	}
}

// skipSpaces is skipSpace's general case.
func (c *scanner) skipSpaces() {
	s, i := c.s, c.i
	for i < len(s) {
		if b := s[i]; asciiSpace(b) {
			i++
			continue
		} else if b < utf8.RuneSelf {
			break
		}
		space, size := spaceRune(s, i)
		if !space {
			break
		}
		i += size
	}
	c.i = i
}

// end reports whether the cursor is at the end of a token. Its fast path,
// which inlines, takes a space.
func (c *scanner) end() bool {
	return c.i < len(c.s) && c.s[c.i] == ' ' || c.atEnd()
}

// atEnd is end's general case.
func (c *scanner) atEnd() bool {
	if c.i == len(c.s) {
		return true
	}
	if b := c.s[c.i]; b < utf8.RuneSelf {
		return asciiSpace(b)
	}
	space, _ := spaceRune(c.s, c.i)
	return space
}

// token returns the next token and moves past it; "" when none is left.
func (c *scanner) token() string {
	c.skipSpace()
	start := c.i
	for !c.end() {
		_, size := utf8.DecodeRuneInString(c.s[c.i:])
		c.i += size
	}
	return c.s[start:c.i]
}

// eat moves past b if it is the next byte.
func (c *scanner) eat(b byte) bool {
	if c.i < len(c.s) && c.s[c.i] == b {
		c.i++
		return true
	}
	return false
}

// decimal reads one or more ASCII digits worth at most max. Where eight
// bytes are left it reads them as one word: it finds the digits that lead
// it and sums them in three multiplies, with no branch per digit.
func (c *scanner) decimal(max uint64) (uint64, bool) {
	s, i := c.s, c.i
	if i+8 <= len(s) {
		x := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		d := x - 0x3030303030303030 // byte k: s[i+k]-'0', exact up to the first byte that is not a digit
		n := bits.TrailingZeros64((d|(d+0x7676767676767676))&0x8080808080808080) >> 3
		if n < 8 { // n digits and then a byte that is not one
			if n == 0 {
				return 0, false
			}
			d <<= 64 - 8*uint(n) // the digits, most significant first, after 8-n leading zeros
			d = (d & 0x0F0F0F0F0F0F0F0F) * (10<<8 + 1) >> 8
			d = (d & 0x00FF00FF00FF00FF) * (100<<16 + 1) >> 16
			d = (d & 0x0000FFFF0000FFFF) * (10000<<32 + 1) >> 32
			if d > max {
				return 0, false
			}
			c.i = i + n
			return d, true
		}
	}
	var v uint64
	for ; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			break
		}
		if v = v*10 + uint64(d); v > max {
			return 0, false
		}
	}
	ok := i > c.i
	c.i = i
	return v, ok
}

// byteValue reads a byte: 0x or 0X and one or more hex digits, or decimal.
func (c *scanner) byteValue() (uint8, bool) {
	if c.i+1 >= len(c.s) || c.s[c.i] != '0' || c.s[c.i+1]|0x20 != 'x' {
		v, ok := c.decimal(0xFF)
		return uint8(v), ok
	}
	c.i += 2
	start := c.i
	var v uint32
	for ; c.i < len(c.s); c.i++ {
		d := uint32(c.s[c.i] - '0')
		if d > 9 {
			if d = uint32(c.s[c.i]|0x20) - 'a' + 10; d < 10 || d > 15 {
				break
			}
		}
		if v = v<<4 | d; v > 0xFF {
			return 0, false
		}
	}
	return uint8(v), c.i > start
}

// prefix reads "a.b.c.d/len" or "a.b.c.d" (a /32).
func (c *scanner) prefix() (Prefix, bool) {
	c.skipSpace()
	var v uint32
	for o := 0; o < 4; o++ {
		if o > 0 && !c.eat('.') {
			return Prefix{}, false
		}
		x, ok := c.decimal(0xFF)
		if !ok {
			return Prefix{}, false
		}
		v = v<<8 | uint32(x)
	}
	length := uint64(32)
	if c.eat('/') {
		var ok bool
		if length, ok = c.decimal(32); !ok {
			return Prefix{}, false
		}
	}
	p, err := NewPrefix(v, 32, int(length))
	return p, err == nil && c.end()
}

// ports reads "lo : hi", three tokens, lo <= hi.
func (c *scanner) ports() (PortRange, bool) {
	c.skipSpace()
	lo, ok := c.decimal(0xFFFF)
	if !ok || !c.end() {
		return PortRange{}, false
	}
	c.skipSpace()
	if !c.eat(':') || !c.end() {
		return PortRange{}, false
	}
	c.skipSpace()
	hi, ok := c.decimal(0xFFFF)
	if !ok || !c.end() || lo > hi {
		return PortRange{}, false
	}
	return PortRange{Lo: uint16(lo), Hi: uint16(hi)}, true
}

// protocolNames are the names a protocol token may be, in any case.
var protocolNames = []struct {
	name  string
	proto Protocol
}{
	{"*", AnyProtocol}, {"any", AnyProtocol}, {"ip", AnyProtocol},
	{"tcp", ExactProtocol(ProtoTCP)}, {"udp", ExactProtocol(ProtoUDP)}, {"icmp", ExactProtocol(ProtoICMP)},
}

// protocol reads "value[/mask]", the mask defaulting to 0xFF, or a name.
func (c *scanner) protocol() (Protocol, bool) {
	c.skipSpace()
	start := c.i
	if v, ok := c.byteValue(); ok {
		m := uint8(0xFF)
		if c.eat('/') {
			m, ok = c.byteValue()
		}
		if ok && c.end() {
			return Protocol{Value: v & m, Mask: m}, true
		}
	}
	c.i = start
	tok := c.token()
	for _, p := range protocolNames {
		if lowerIs(tok, p.name) {
			return p.proto, true
		}
	}
	return Protocol{}, false
}

// action reads what follows a rule's nine match tokens: nothing (PORT 0),
// DROP or DENY, or PORT, PERMIT or FWD with an optional port, in any case.
// What follows the kind and its port is ignored.
func (c *scanner) action() (Action, bool) {
	switch kind := c.token(); strings.ToUpper(kind) {
	case "":
		return Action{Kind: Forward}, true
	case "DROP", "DENY":
		return Action{Kind: Drop}, true
	case "PORT", "PERMIT", "FWD":
		if c.skipSpace(); c.i == len(c.s) {
			return Action{Kind: Forward}, true
		}
		p, ok := c.decimal(math.MaxInt32)
		return Action{Kind: Forward, Port: int(p)}, ok && c.end()
	}
	return Action{}, false
}

// lowerIs reports strings.ToLower(s) == word, for a lower-case ASCII word,
// without building the lowered string.
func lowerIs(s, word string) bool {
	n := 0
	for _, r := range s {
		if n == len(word) || unicode.ToLower(r) != rune(word[n]) {
			return false
		}
		n++
	}
	return n == len(word)
}

// number parses s as a decimal worth at most max, as the scanner reads one.
func number(s string, max uint64) (uint64, bool) {
	c := scanner{s: s}
	v, ok := c.decimal(max)
	return v, ok && c.i == len(s)
}

// ParseIPv4Prefix parses "a.b.c.d/len" (or "a.b.c.d" as /32).
func ParseIPv4Prefix(s string) (Prefix, error) {
	c := scanner{s: s}
	if p, ok := c.prefix(); ok && c.i == len(s) {
		return p, nil
	}
	return Prefix{}, prefixError(s)
}

// parseProtocol parses one protocol token.
func parseProtocol(s string) (Protocol, error) {
	c := scanner{s: s}
	if p, ok := c.protocol(); ok && c.i == len(s) {
		return p, nil
	}
	if val, mask, masked := strings.Cut(s, "/"); masked && isByte(val) {
		return Protocol{}, fmt.Errorf("ruleset: bad protocol mask %q", mask)
	}
	return Protocol{}, fmt.Errorf("ruleset: bad protocol %q", s)
}

// isByte reports whether s is one byte value as the scanner reads one.
func isByte(s string) bool {
	c := scanner{s: s}
	_, ok := c.byteValue()
	return ok && c.i == len(s)
}

// ruleError says why the scanner refused line: too few tokens, or else the
// first bad field. Only refused lines come here, so it may allocate.
func ruleError(line string) error {
	c := scanner{s: line, i: 1}
	var tok [9]string
	for n := range tok {
		if tok[n] = c.token(); tok[n] == "" {
			return fmt.Errorf("ruleset: rule has %d tokens, want >= 9: %q", n, line)
		}
	}
	for _, sip := range tok[:2] {
		if _, err := ParseIPv4Prefix(sip); err != nil {
			return err
		}
	}
	if err := portRangeError(tok[2], tok[3], tok[4]); err != nil {
		return fmt.Errorf("source port: %w", err)
	}
	if err := portRangeError(tok[5], tok[6], tok[7]); err != nil {
		return fmt.Errorf("destination port: %w", err)
	}
	if _, err := parseProtocol(tok[8]); err != nil {
		return err
	}
	rest := c.s[c.i:]
	if kind := strings.ToUpper(c.token()); kind == "PORT" || kind == "PERMIT" || kind == "FWD" {
		return fmt.Errorf("ruleset: bad action port %q", c.token())
	}
	return fmt.Errorf("ruleset: unknown action %q", strings.Join(strings.Fields(rest), " "))
}

// prefixError says why s is not a prefix, checking in the order the
// format's first parser did: the length as strconv.Atoi reads it, the
// dots, each octet, the length's range, and last the sign Atoi allows and
// the format does not.
func prefixError(s string) error {
	addr, length, slash := strings.Cut(s, "/")
	n := 32
	if slash {
		var err error
		if n, err = strconv.Atoi(length); err != nil {
			return fmt.Errorf("ruleset: bad prefix length in %q: %v", s, err)
		}
	}
	if strings.Count(addr, ".") != 3 {
		return fmt.Errorf("ruleset: bad IPv4 address %q", addr)
	}
	for _, o := range strings.Split(addr, ".") {
		if _, ok := number(o, 0xFF); !ok {
			return fmt.Errorf("ruleset: bad IPv4 octet %q in %q", o, addr)
		}
	}
	if _, err := NewPrefix(0, 32, n); err != nil {
		return err
	}
	return fmt.Errorf("ruleset: bad prefix length in %q: %v", s, &strconv.NumError{Func: "Atoi", Num: length, Err: strconv.ErrSyntax})
}

// portRangeError says why the tokens lo, sep, hi are not a port range, or
// returns nil if they are one.
func portRangeError(lo, sep, hi string) error {
	if sep != ":" {
		return fmt.Errorf("ruleset: want \"lo : hi\", got %q", lo+" "+sep+" "+hi)
	}
	l, ok := number(lo, 0xFFFF)
	if !ok {
		return fmt.Errorf("ruleset: bad port %q", lo)
	}
	h, ok := number(hi, 0xFFFF)
	if !ok {
		return fmt.Errorf("ruleset: bad port %q", hi)
	}
	_, err := NewPortRange(uint16(l), uint16(h))
	return err
}

// Write serializes the ruleset in the text format, one rule per line.
func (rs *RuleSet) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, r := range rs.Rules {
		if _, err := fmt.Fprintln(bw, r.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MarshalText renders the ruleset to a string in the text format.
func (rs *RuleSet) MarshalText() string {
	var sb strings.Builder
	if err := rs.Write(&sb); err != nil {
		panic("ruleset: marshal: " + err.Error()) // strings.Builder cannot fail
	}
	return sb.String()
}
