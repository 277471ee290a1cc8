package ruleset

import (
	"testing"

	"pktclass/internal/packet"
)

// FuzzParseRule checks that the rule parser never panics and that
// anything it accepts round-trips through String.
func FuzzParseRule(f *testing.F) {
	f.Add("@1.2.3.4/32 5.6.7.8/16 0 : 65535 80 : 80 tcp DROP")
	f.Add("@0.0.0.0/0 0.0.0.0/0 0 : 65535 0 : 65535 * PORT 3")
	f.Add("@255.255.255.255/32 1.1.1.1/8 1 : 2 3 : 4 0x11/0xF0")
	f.Add("@")
	f.Add("")
	f.Add("@1.2.3.4 5.6.7.8 0 : 1 2 : 3 icmp")
	f.Add("@1.2.3.4/32 5.6.7.8/32 0 : 65535 0 : 65535 17")
	f.Fuzz(func(t *testing.T, line string) {
		r, err := ParseRule(line)
		if err != nil {
			return
		}
		back, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("accepted %q but rejected its String %q: %v", line, r.String(), err)
		}
		if back != r {
			t.Fatalf("round trip changed rule: %+v -> %+v", r, back)
		}
	})
}

// FuzzParseTernary checks the ternary string parser.
func FuzzParseTernary(f *testing.F) {
	f.Add("10*")
	sample := ""
	for i := 0; i < packet.W; i++ {
		sample += "*"
	}
	f.Add(sample)
	f.Fuzz(func(t *testing.T, s string) {
		tern, err := ParseTernary(s)
		if err != nil {
			return
		}
		back, err := ParseTernary(tern.String())
		if err != nil || back != tern {
			t.Fatalf("ternary round trip failed for %q", s)
		}
	})
}

// FuzzParseHeaderText checks the trace header parser against its printer.
func FuzzParseHeaderText(f *testing.F) {
	f.Add("1.2.3.4 5.6.7.8 100 80 6")
	f.Add("0.0.0.0 255.255.255.255 0 65535 255")
	f.Add("not a header")
	f.Fuzz(func(t *testing.T, line string) {
		h, err := packet.ParseHeader(line)
		if err != nil {
			return
		}
		back, err := packet.ParseHeader(h.String())
		if err != nil || back != h {
			t.Fatalf("header round trip failed for %q", line)
		}
	})
}
