package ruleset

import (
	"bufio"
	"fmt"
	"io"
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

// Parse reads a ruleset from r in the text format.
func Parse(r io.Reader) (*RuleSet, error) {
	text, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(string(text))
}

// ParseString parses a ruleset from a string: one pass over its lines,
// every token a substring of s, so well-formed input costs the rule slice
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
		rule, err := ParseRule(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		rules = append(rules, rule)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("ruleset: no rules in input")
	}
	return New(rules), nil
}

// cutFields cuts the first len(dst) tokens of s into dst by strings.Fields'
// rule — a token is a maximal run of runes that are not white space as
// unicode.IsSpace has it — and returns how many it found and what follows
// the last of them.
func cutFields(s string, dst []string) (n int, rest string) {
	i := 0
	for n < len(dst) {
		if i = skipRunes(s, i, true); i == len(s) {
			break
		}
		end := skipRunes(s, i, false)
		dst[n], i = s[i:end], end
		n++
	}
	return n, s[i:]
}

// skipRunes returns the index of the first rune of s at or after i that is
// not white space (space true) or is (space false); len(s) if there is none.
func skipRunes(s string, i int, space bool) int {
	for i < len(s) {
		c, size := s[i], 1
		is := c == ' ' || c-'\t' < 5 // "\t\n\v\f\r": with ' ', the ASCII spaces
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			is = unicode.IsSpace(r)
		}
		if is != space {
			break
		}
		i += size
	}
	return i
}

// ParseRule parses a single rule line.
func ParseRule(line string) (Rule, error) {
	if !strings.HasPrefix(line, "@") {
		return Rule{}, fmt.Errorf("ruleset: rule must start with '@': %q", line)
	}
	// Minimum: sip dip splo : sphi dplo : dphi proto  => 9 tokens; what
	// follows them is the action.
	var tok [9]string
	n, action := cutFields(line[1:], tok[:])
	if n < len(tok) {
		return Rule{}, fmt.Errorf("ruleset: rule has %d tokens, want >= 9: %q", n, line)
	}
	var r Rule
	var err error
	if r.SIP, err = ParseIPv4Prefix(tok[0]); err != nil {
		return Rule{}, err
	}
	if r.DIP, err = ParseIPv4Prefix(tok[1]); err != nil {
		return Rule{}, err
	}
	if r.SP, err = parsePortRange(tok[2], tok[3], tok[4]); err != nil {
		return Rule{}, fmt.Errorf("source port: %w", err)
	}
	if r.DP, err = parsePortRange(tok[5], tok[6], tok[7]); err != nil {
		return Rule{}, fmt.Errorf("destination port: %w", err)
	}
	if r.Proto, err = parseProtocol(tok[8]); err != nil {
		return Rule{}, err
	}
	r.Action, err = parseAction(action)
	if err != nil {
		return Rule{}, err
	}
	if err := r.Validate(); err != nil {
		return Rule{}, err
	}
	return r, nil
}

func parsePortRange(lo, sep, hi string) (PortRange, error) {
	if sep != ":" {
		return PortRange{}, fmt.Errorf("ruleset: want \"lo : hi\", got %q", lo+" "+sep+" "+hi)
	}
	l, ok := parseDecimal(lo, 0xFFFF)
	if !ok {
		return PortRange{}, fmt.Errorf("ruleset: bad port %q", lo)
	}
	h, ok := parseDecimal(hi, 0xFFFF)
	if !ok {
		return PortRange{}, fmt.Errorf("ruleset: bad port %q", hi)
	}
	return NewPortRange(uint16(l), uint16(h))
}

// parseDecimal parses what strconv.ParseUint(s, 10, ·) accepts — one or
// more ASCII digits and nothing else — up to max, which is at most 0xFFFF.
func parseDecimal(s string, max uint32) (v uint32, ok bool) {
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if v = v*10 + uint32(d); d > 9 || v > max {
			return 0, false
		}
	}
	return v, s != ""
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

// protocolNames are the names parseProtocol accepts, in any case.
var protocolNames = []struct {
	name  string
	proto Protocol
}{
	{"*", AnyProtocol}, {"any", AnyProtocol}, {"ip", AnyProtocol},
	{"tcp", ExactProtocol(ProtoTCP)}, {"udp", ExactProtocol(ProtoUDP)}, {"icmp", ExactProtocol(ProtoICMP)},
}

// parseProtocol parses "value[/mask]", the mask defaulting to 0xFF, or a
// name. A number is hexadecimal with a 0x or 0X prefix (what
// Protocol.String prints) and decimal without one.
func parseProtocol(s string) (Protocol, error) {
	val, mask, masked := strings.Cut(s, "/")
	v, ok := parseByte(val)
	if !ok {
		for _, p := range protocolNames {
			if lowerIs(s, p.name) {
				return p.proto, nil
			}
		}
		return Protocol{}, fmt.Errorf("ruleset: bad protocol %q", s)
	}
	m := uint8(0xFF)
	if masked {
		if m, ok = parseByte(mask); !ok {
			return Protocol{}, fmt.Errorf("ruleset: bad protocol mask %q", mask)
		}
	}
	return Protocol{Value: v & m, Mask: m}, nil
}

// parseByte parses 0xHH / 0XHH as hexadecimal and anything else as decimal.
func parseByte(s string) (uint8, bool) {
	if len(s) >= 2 && s[0] == '0' && s[1]|0x20 == 'x' {
		v, err := strconv.ParseUint(s[2:], 16, 8)
		return uint8(v), err == nil
	}
	v, ok := parseDecimal(s, 0xFF)
	return uint8(v), ok
}

// parseAction parses what follows a rule's nine match tokens.
func parseAction(s string) (Action, error) {
	var tok [2]string // the kind and its port; what follows them is ignored
	n, _ := cutFields(s, tok[:])
	if n == 0 {
		return Action{Kind: Forward, Port: 0}, nil
	}
	switch strings.ToUpper(tok[0]) {
	case "DROP", "DENY":
		return Action{Kind: Drop}, nil
	case "PORT", "PERMIT", "FWD":
		if n < 2 {
			return Action{Kind: Forward, Port: 0}, nil
		}
		p, err := strconv.Atoi(tok[1])
		if err != nil || p < 0 {
			return Action{}, fmt.Errorf("ruleset: bad action port %q", tok[1])
		}
		return Action{Kind: Forward, Port: p}, nil
	}
	all := make([]string, (len(s)+1)/2) // room for every token of s
	n, _ = cutFields(s, all)
	return Action{}, fmt.Errorf("ruleset: unknown action %q", strings.Join(all[:n], " "))
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
