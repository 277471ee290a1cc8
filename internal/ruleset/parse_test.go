package ruleset

import (
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

const sampleText = `# comment line
@198.12.130.31/32 192.5.0.0/16 0 : 65535 1521 : 1521 0x06/0xFF PORT 2

@0.0.0.0/0 10.0.0.0/8 1024 : 65535 80 : 80 tcp DROP
@1.2.3.4/32 5.6.7.8/32 53 : 53 0 : 65535 udp
@9.0.0.0/8 0.0.0.0/0 0 : 65535 0 : 1023 * PORT 7
`

func TestParseBasics(t *testing.T) {
	rs, err := ParseString(sampleText)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 4 {
		t.Fatalf("parsed %d rules", rs.Len())
	}
	r0 := rs.Rules[0]
	if r0.SIP.Len != 32 || r0.DIP.Len != 16 {
		t.Fatalf("rule 0 prefixes wrong: %+v", r0)
	}
	if !r0.SP.Wildcard() || !r0.DP.Exact() || r0.DP.Lo != 1521 {
		t.Fatalf("rule 0 ports wrong: %+v", r0)
	}
	if r0.Proto != ExactProtocol(6) {
		t.Fatalf("rule 0 proto wrong: %+v", r0.Proto)
	}
	if r0.Action != (Action{Kind: Forward, Port: 2}) {
		t.Fatalf("rule 0 action wrong: %+v", r0.Action)
	}
	if rs.Rules[1].Action.Kind != Drop {
		t.Fatal("rule 1 not DROP")
	}
	if rs.Rules[2].Action != (Action{Kind: Forward, Port: 0}) {
		t.Fatal("default action not PORT 0")
	}
	if !rs.Rules[3].Proto.Wildcard() {
		t.Fatal("rule 3 proto not wildcard")
	}
}

func TestParseProtocolForms(t *testing.T) {
	cases := map[string]Protocol{
		"tcp":       ExactProtocol(6),
		"UDP":       ExactProtocol(17),
		"icmp":      ExactProtocol(1),
		"*":         AnyProtocol,
		"any":       AnyProtocol,
		"0x06/0xFF": ExactProtocol(6),
		"0x00/0x00": AnyProtocol,
		"0x11":      ExactProtocol(17),
		"0X11":      ExactProtocol(17),
		"0x11/0XF0": {Value: 0x10, Mask: 0xF0},
		// Without 0x a number is decimal, whatever its length.
		"6":      ExactProtocol(6),
		"17":     ExactProtocol(ProtoUDP),
		"99":     ExactProtocol(99),
		"100":    ExactProtocol(100),
		"255":    ExactProtocol(255),
		"17/255": ExactProtocol(17),
	}
	for s, want := range cases {
		got, err := parseProtocol(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got != want {
			t.Fatalf("%q: got %+v want %+v", s, got, want)
		}
	}
	for _, bad := range []string{"zzz", "0x100", "0x06/0xZZ", "256", "0x06/", "6/FF", "1F", "tcp/0xFF", "0x"} {
		if _, err := parseProtocol(bad); err == nil {
			t.Fatalf("accepted protocol %q", bad)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bads := []string{
		"1.2.3.4/32 5.6.7.8/32 0 : 1 0 : 1 tcp",          // missing @
		"@1.2.3.4/32 5.6.7.8/32 0 : 1 tcp",               // too few tokens
		"@1.2.3.4/32 5.6.7.8/32 0 ; 1 0 : 1 tcp",         // bad separator
		"@1.2.3.4/32 5.6.7.8/32 9 : 1 0 : 1 tcp",         // inverted range
		"@1.2.3.4/32 5.6.7.8/32 0 : 99999 0 : 1 tcp",     // port overflow
		"@1.2.3.4/32 5.6.7.8/32 0 : 1 0 : 1 tcp FLY",     // bad action
		"@1.2.3.4/32 5.6.7.8/32 0 : 1 0 : 1 tcp PORT zz", // bad port
		"@1.2.3.4/32 5.6.7.8/32 0 : 1 0 : 1 tcp PORT -5", // negative port
	}
	for _, b := range bads {
		if _, err := ParseRule(b); err == nil {
			t.Fatalf("accepted %q", b)
		}
	}
	// The error text is part of the format's contract (tools print it).
	for line, want := range map[string]string{
		"@1.2.3.4/32 5.6.7.8/32 0 : 1 tcp":                 `ruleset: rule has 6 tokens, want >= 9: "@1.2.3.4/32 5.6.7.8/32 0 : 1 tcp"`,
		"@1.2.3/32 5.6.7.8/32 0 : 1 0 : 1 tcp":             `ruleset: bad IPv4 address "1.2.3"`,
		"@1.x.3/32 5.6.7.8/32 0 : 1 0 : 1 tcp":             `ruleset: bad IPv4 address "1.x.3"`,
		"@1.2.3.4/32 5.6.256.8/32 0 : 1 0 : 1 tcp":         `ruleset: bad IPv4 octet "256" in "5.6.256.8"`,
		"@1.2.3.4/32 5.6..8/32 0 : 1 0 : 1 tcp":            `ruleset: bad IPv4 octet "" in "5.6..8"`,
		"@1.2.3.4/33 5.6.7.8/32 0 : 1 0 : 1 tcp":           `ruleset: prefix length 33 out of range [0,32]`,
		"@1.2.3.4/32 5.6.7.8/32 0 : +1 0 : 1 tcp":          `source port: ruleset: bad port "+1"`,
		"@1.2.3.4/32 5.6.7.8/32 0 : 1 0 : 1 0x06/0xZZ":     `ruleset: bad protocol mask "0xZZ"`,
		"@1.2.3.4/32 5.6.7.8/32 0 : 1 0 : 1 tcq":           `ruleset: bad protocol "tcq"`,
		"@1.2.3.4/32 5.6.7.8/32 0 : 1 0 : 1 tcp FLY \t me": `ruleset: unknown action "FLY me"`,
		"@1.2.3.4/32 5.6.7.8/32 0 : 1 0 : 1 tcp PORT -5":   `ruleset: bad action port "-5"`,
	} {
		if _, err := ParseRule(line); err == nil || err.Error() != want {
			t.Fatalf("%q: error %v, want %s", line, err, want)
		}
	}
	if _, err := ParseString("# only comments\n"); err == nil {
		t.Fatal("accepted empty ruleset")
	}
	r := NewWildcardRule(Action{Kind: Forward, Port: -5})
	if err := r.Validate(); err == nil {
		t.Fatal("Validate accepted a negative action port")
	}
}

// The tokenizer must cut exactly what strings.Fields cuts, Unicode spaces
// and invalid UTF-8 included, whatever the buffer holds of it.
func TestCutFieldsEqualsStringsFields(t *testing.T) {
	check := func(s string) bool {
		want := strings.Fields(s)
		for _, room := range []int{0, 1, len(want), len(want) + 2} {
			got := make([]string, room)
			n, rest := cutFields(s, got)
			if n != min(room, len(want)) || !slices.Equal(got[:n], want[:n]) {
				t.Logf("%q room %d: cut %q, Fields %q", s, room, got[:n], want)
				return false
			}
			// What is left holds the remaining tokens and nothing else.
			if !slices.Equal(strings.Fields(rest), want[n:]) {
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
			t.Fatalf("cutFields differs from strings.Fields on %q", s)
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
			t.Fatalf("cutFields differs from strings.Fields on %q", sb.String())
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// ParseString's line handling: endings, blanks, comments, and the line
// number an error carries.
func TestParseStringLines(t *testing.T) {
	const a, b = "@1.2.3.4/32 5.6.7.8/32 0 : 1 0 : 1 tcp PORT 1", "@9.0.0.0/8 0.0.0.0/0 0 : 65535 0 : 1023 * DROP"
	ra, errA := ParseRule(a)
	rb, errB := ParseRule(b)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	for name, text := range map[string]string{
		"lf":                  a + "\n" + b + "\n",
		"crlf":                a + "\r\n" + b + "\r\n",
		"no trailing newline": a + "\n" + b,
		"blank and comments":  "\n# one\n" + a + "\n\n   \n  # two\n" + b + "\n#",
		"tabs and indent":     "\t" + strings.ReplaceAll(a, " ", "\t") + " \n  " + strings.ReplaceAll(b, " ", " \t ") + "\t\n",
		"unicode spaces":      "\u00a0" + strings.ReplaceAll(a, " ", "\u2003") + "\u3000\n" + b,
	} {
		rs, err := ParseString(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(rs.Rules, []Rule{ra, rb}) {
			t.Fatalf("%s: parsed %v", name, rs.Rules)
		}
	}
	// An error on line 7 of 9, behind blank, comment and CRLF lines.
	text := a + "\n\n# c\r\n" + b + "\r\n\n" + a + "\n@1.2.3.4/32 5.6.7.8/32 0 : 1 0 ; 1 tcp\n" + b + "\n" + a
	_, err := ParseString(text)
	if want := `line 7: destination port: ruleset: want "lo : hi", got "0 ; 1"`; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %s", err, want)
	}
	if _, err := Parse(strings.NewReader(text)); err == nil || !strings.HasPrefix(err.Error(), "line 7: ") {
		t.Fatalf("Parse error %v, want line 7", err)
	}
	if _, err := Parse(iotest.ErrReader(io.ErrUnexpectedEOF)); err != io.ErrUnexpectedEOF {
		t.Fatalf("Parse passed on read error %v", err)
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	for _, profile := range []Profile{FirewallProfile, FeatureFree, PrefixOnly} {
		rs := Generate(GenConfig{N: 60, Profile: profile, Seed: 99, DefaultRule: true})
		text := rs.MarshalText()
		back, err := ParseString(text)
		if err != nil {
			t.Fatalf("%v: %v\n%s", profile, err, text)
		}
		fromReader, err := Parse(iotest.OneByteReader(strings.NewReader(text)))
		if err != nil || !slices.Equal(fromReader.Rules, back.Rules) {
			t.Fatalf("%v: Parse differs from ParseString (%v)", profile, err)
		}
		if back.Len() != rs.Len() {
			t.Fatalf("%v: round trip %d != %d rules", profile, back.Len(), rs.Len())
		}
		for i := range rs.Rules {
			if rs.Rules[i] != back.Rules[i] {
				t.Fatalf("%v: rule %d round trip\n got %+v\nwant %+v", profile, i, back.Rules[i], rs.Rules[i])
			}
		}
	}
}

func TestParseSampleRuleSetText(t *testing.T) {
	rs := SampleRuleSet()
	back, err := ParseString(rs.MarshalText())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != rs.Len() {
		t.Fatalf("round trip lost rules: %d != %d", back.Len(), rs.Len())
	}
}

func TestParseLongInput(t *testing.T) {
	var sb strings.Builder
	rs := Generate(GenConfig{N: 2048, Profile: FirewallProfile, Seed: 5})
	if err := rs.Write(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2048 {
		t.Fatalf("parsed %d rules", back.Len())
	}
}

func BenchmarkParse(b *testing.B) {
	text := Generate(GenConfig{N: 32768, Profile: PrefixOnly, Seed: 1, DefaultRule: true}).MarshalText()
	b.Run("N32768", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			if _, err := ParseString(text); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Well-formed text costs the rule slice and the RuleSet, not something per
// rule: tokens are substrings, numbers are parsed in place.
func TestParseAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int, profile Profile) float64 {
		text := Generate(GenConfig{N: n, Profile: profile, Seed: 3, DefaultRule: true}).MarshalText()
		text = strings.Replace(text, "0x06/0xFF", "tcp", 1) + "# done\n\n@1.2.3.4 5.6.7.8 0 : 1 2 : 3 17"
		return testing.AllocsPerRun(5, func() {
			if rs, err := ParseString(text); err != nil || rs.Len() != n+1 {
				t.Fatalf("parsed %v rules of %d: %v", rs, n+1, err)
			}
		})
	}
	for _, profile := range []Profile{FirewallProfile, PrefixOnly} {
		small, large := allocs(256, profile), allocs(4096, profile)
		if small != large || large > 4 {
			t.Fatalf("%v: %v allocations for 256 rules, %v for 4096", profile, small, large)
		}
	}
}
