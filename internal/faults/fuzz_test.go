package faults

import "testing"

// FuzzParse: the -fault-profile parser never panics, every rejection is
// an error with no profile, and an accepted profile re-parses from its
// String form to the same String.
func FuzzParse(f *testing.F) {
	for name, p := range Presets {
		f.Add(name)
		f.Add(name + ",seed=7")
		f.Add(p.String())
	}
	f.Add("seed=7,timeout=0.1,servfail=0.05,latency=0.2:5ms,burst=refused:10s+30s,blackout=65010:timeout:1m")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			if p != nil {
				t.Fatalf("Parse(%q) returned a profile with error %v", spec, err)
			}
			return
		}
		if p == nil {
			return
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not re-parse: %v", spec, p.String(), err)
		}
		if again.String() != p.String() {
			t.Fatalf("round trip of %q: %q → %q", spec, p.String(), again.String())
		}
	})
}
