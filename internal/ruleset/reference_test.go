package ruleset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// referenceParse is the text format as parse.go's format comment states
// it, written the plain way — lines cut at '\n' and trimmed, tokens from
// strings.Fields, numbers from strconv — as the oracle for the scanner. It
// returns the rules, or the number of the first line it refuses (0 when no
// line holds a rule).
func referenceParse(text string) (rules []Rule, badLine int) {
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		r, ok := referenceRule(line)
		if !ok {
			return nil, n + 1
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, 0
	}
	return rules, -1
}

func referenceRule(line string) (r Rule, ok bool) {
	if !strings.HasPrefix(line, "@") {
		return Rule{}, false
	}
	tok := strings.Fields(line[1:])
	if len(tok) < 9 {
		return Rule{}, false
	}
	if r.SIP, ok = referencePrefix(tok[0]); !ok {
		return Rule{}, false
	}
	if r.DIP, ok = referencePrefix(tok[1]); !ok {
		return Rule{}, false
	}
	if r.SP, ok = referencePorts(tok[2:5]); !ok {
		return Rule{}, false
	}
	if r.DP, ok = referencePorts(tok[5:8]); !ok {
		return Rule{}, false
	}
	if r.Proto, ok = referenceProtocol(tok[8]); !ok {
		return Rule{}, false
	}
	r.Action, ok = referenceAction(tok[9:])
	return r, ok
}

// referenceDecimal is one or more ASCII digits, no sign, worth at most max.
func referenceDecimal(s string, max uint64) (uint64, bool) {
	if s == "" || strings.Trim(s, "0123456789") != "" {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 10, 64)
	return v, err == nil && v <= max
}

func referencePrefix(s string) (Prefix, bool) {
	addr, length, slash := strings.Cut(s, "/")
	n := uint64(32)
	if slash {
		var ok bool
		if n, ok = referenceDecimal(length, 32); !ok {
			return Prefix{}, false
		}
	}
	octets := strings.Split(addr, ".")
	if len(octets) != 4 {
		return Prefix{}, false
	}
	var v uint32
	for _, o := range octets {
		x, ok := referenceDecimal(o, 255)
		if !ok {
			return Prefix{}, false
		}
		v = v<<8 | uint32(x)
	}
	p, err := NewPrefix(v, 32, int(n))
	return p, err == nil
}

func referencePorts(tok []string) (PortRange, bool) {
	lo, okLo := referenceDecimal(tok[0], 65535)
	hi, okHi := referenceDecimal(tok[2], 65535)
	if tok[1] != ":" || !okLo || !okHi || lo > hi {
		return PortRange{}, false
	}
	return PortRange{Lo: uint16(lo), Hi: uint16(hi)}, true
}

func referenceByte(s string) (uint8, bool) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		v, err := strconv.ParseUint(s[2:], 16, 8)
		return uint8(v), err == nil
	}
	v, ok := referenceDecimal(s, 255)
	return uint8(v), ok
}

func referenceProtocol(s string) (Protocol, bool) {
	val, mask, masked := strings.Cut(s, "/")
	if v, ok := referenceByte(val); ok {
		m := uint8(0xFF)
		if masked {
			if m, ok = referenceByte(mask); !ok {
				return Protocol{}, false
			}
		}
		return Protocol{Value: v & m, Mask: m}, true
	}
	switch strings.Map(unicode.ToLower, s) {
	case "*", "any", "ip":
		return AnyProtocol, true
	case "tcp":
		return ExactProtocol(ProtoTCP), true
	case "udp":
		return ExactProtocol(ProtoUDP), true
	case "icmp":
		return ExactProtocol(ProtoICMP), true
	}
	return Protocol{}, false
}

func referenceAction(tok []string) (Action, bool) {
	if len(tok) == 0 {
		return Action{Kind: Forward}, true
	}
	switch strings.ToUpper(tok[0]) {
	case "DROP", "DENY":
		return Action{Kind: Drop}, true
	case "PORT", "PERMIT", "FWD":
		if len(tok) == 1 {
			return Action{Kind: Forward}, true
		}
		p, ok := referenceDecimal(tok[1], math.MaxInt32)
		return Action{Kind: Forward, Port: int(p)}, ok
	}
	return Action{}, false
}

// checkAgainstReference fails unless ParseString and the reference agree
// on text: both accept it with the same rules, or both refuse it at the
// same line.
func checkAgainstReference(t *testing.T, text string) {
	t.Helper()
	rs, err := ParseString(text)
	want, badLine := referenceParse(text)
	switch {
	case err == nil && badLine >= 0:
		t.Fatalf("%q: accepted, the reference refuses line %d", text, badLine)
	case err == nil && !slices.Equal(rs.Rules, want):
		t.Fatalf("%q: parsed %v, the reference %v", text, rs.Rules, want)
	case err != nil && badLine < 0:
		t.Fatalf("%q: refused (%v), the reference accepts %v", text, err, want)
	case err != nil:
		prefix := "line " + strconv.Itoa(badLine) + ": "
		if badLine == 0 {
			prefix = "ruleset: no rules"
		}
		if !strings.HasPrefix(err.Error(), prefix) {
			t.Fatalf("%q: error %q, the reference refuses line %d", text, err, badLine)
		}
	}
}

// spaceAlphabet is white space of every kind, and runes and bytes that
// look like it and are not: NBSP, U+0085 and U+2028 are spaces, a stray
// 0x80–0xFF byte is invalid UTF-8 and so a token byte.
var spaceAlphabet = []string{
	" ", "\t", "\n", "\v", "\f", "\r", "\u0085", "\u00a0", "\u1680", "\u2000", "\u200a", "\u2028", "\u2029",
	"\u202f", "\u205f", "\u3000", "\x85", "\xa0", "\xc2", "\xe2\x80", "\xff", "\ufffd", "\x00", "\x1c",
}

func FuzzParseString(f *testing.F) {
	for _, s := range []string{ // FuzzParseRule's seeds
		"@1.2.3.4/32 5.6.7.8/16 0 : 65535 80 : 80 tcp DROP",
		"@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 * PORT 3",
		"@255.255.255.255/32 1.1.1.1/8 1 : 2 3 : 4 0x11/0xF0",
		"@",
		"",
		"@1.2.3.4 5.6.7.8 0 : 1 2 : 3 icmp",
		"@1.2.3.4/32 5.6.7.8/32 0 : 65535 0 : 65535 17",
	} {
		f.Add(s)
	}
	const rule = "@1.2.3.4/32 5.6.7.8/32 0 : 1 0 : 1 tcp PORT 3"
	for _, sp := range spaceAlphabet {
		f.Add(strings.ReplaceAll(rule, " ", sp))
		f.Add(sp + rule + sp + "\n" + strings.Replace(rule, " ", sp, 3))
	}
	for _, s := range []string{
		"@1.2.3.4/+8 5.6.7.8/32 0 : 1 0 : 1 tcp",
		"@1.2.3.4/-0 5.6.7.8/32 0 : 1 0 : 1 tcp",
		"@1.2.3.4/32 5.6.7.8/32 0 : 1 0 : 1 tcp PORT +3",
		"@1.2.3.4/32 5.6.7.8/32 0 : 1 0 : 1 tcp PORT 99999999999",
		"@1.2.3.4/32 5.6.7.8/32 0 : 1 0 : 1 tcp PORT 2147483647",
		"@01.002.3.4/032 5.6.7.8/32 00 : 65535 0 : 1 0x0006/0x00ff",
		"@1.2.3.4/32 5.6.7.8/32 0 : 1 0 : 1 İCMP PERMıT 7",
		"# c\n\n" + rule + "\r\n@1.2.3.4/32 5.6.7.8/32 0 : 1 0 ; 1 tcp\n" + rule,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkAgainstReference(t, text)
	})
}

// TestScannerAgreesWithReference runs the fuzz target's check over random
// lines built from rule syntax, white space of every kind and stray bytes.
func TestScannerAgreesWithReference(t *testing.T) {
	pieces := append([]string{
		"@", "1", "2", "9", "25", "255", "256", "0", "00", "65535", "65536", "32", "33", "4294967296",
		".", "/", ":", "+", "-", "0x", "0X", "F", "ff", "tcp", "UDP", "*", "any", "PORT", "port", "DROP",
		"deny", "FWD", "permit", "2147483647", "2147483648", "#",
	}, spaceAlphabet...)
	rng := rand.New(rand.NewSource(1))
	valid := 0
	for i := 0; i < 20000; i++ {
		// Start from a valid rule and splice pieces in, so that most lines
		// get deep into the grammar before they go wrong.
		line := fmt.Sprintf("@%d.%d.%d.%d/%d %d.0.0.0/%d %d : %d %d : %d %s %s",
			rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(256), rng.Intn(33), rng.Intn(256), rng.Intn(33),
			rng.Intn(100), 100+rng.Intn(65436), rng.Intn(100), 100+rng.Intn(65436),
			[]string{"tcp", "0x06/0xFF", "17", "*", "0X11/0xf0"}[rng.Intn(5)],
			[]string{"", "DROP", "PORT 5", "deny x", "FWD"}[rng.Intn(5)])
		for n := rng.Intn(3); n > 0; n-- {
			at := rng.Intn(len(line) + 1)
			line = line[:at] + pieces[rng.Intn(len(pieces))] + line[at+rng.Intn(2)*min(1, len(line)-at):]
		}
		if _, badLine := referenceParse(line); badLine < 0 {
			valid++
		}
		checkAgainstReference(t, line)
	}
	if valid < 2000 {
		t.Fatalf("only %d of 20000 lines were rules", valid)
	}
}

// The scanner's tokens are strings.Fields' exactly, Unicode spaces and
// invalid UTF-8 included, however many are asked for, and what it leaves
// holds the remaining tokens and nothing else.
func TestScannerTokensEqualStringsFields(t *testing.T) {
	check := func(s string) bool {
		want := strings.Fields(s)
		for _, room := range []int{0, 1, len(want), len(want) + 2} {
			c := scanner{s: s}
			var got []string
			for len(got) < room {
				tok := c.token()
				if tok == "" {
					break
				}
				got = append(got, tok)
			}
			n := len(got)
			if n != min(room, len(want)) || !slices.Equal(got, want[:n]) {
				t.Logf("%q room %d: cut %q, Fields %q", s, room, got, want)
				return false
			}
			if rest := s[c.i:]; !slices.Equal(strings.Fields(rest), want[n:]) {
				t.Logf("%q room %d: rest %q, want tokens %q", s, room, rest, want[n:])
				return false
			}
		}
		return true
	}
	for _, s := range []string{
		"", " ", "a", " a ", "a b", "\ta\v\fb\r\nc ", "a\u00a0b\u0085c\u2003d\u3000", "\u1680x\u2028\u2029y\u202f\u205fz",
		"a\x00b\x1fc\x7fd", "\xffa\xc2 b\xe2\x80", "é è\u00a0ê", "@1.2.3.4/32 5.6.7.8/32 0 : 1 0 : 1 tcp PORT 3",
	} {
		if !check(s) {
			t.Fatalf("the scanner's tokens differ from strings.Fields on %q", s)
		}
	}
	// Random strings over an alphabet dense in spaces of every kind.
	alphabet := []rune(" \t\n\v\f\r\u0085\u00a0\u1680\u2000\u200a\u2028\u3000ab@:/0é\x00\x1c\ufffd")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			if rng.Intn(8) == 0 {
				sb.WriteByte(byte(0x80 + rng.Intn(0x80))) // a stray byte: invalid UTF-8
			} else {
				sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
			}
		}
		if !check(sb.String()) {
			t.Fatalf("the scanner's tokens differ from strings.Fields on %q", sb.String())
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
