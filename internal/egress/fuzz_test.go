package egress

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// lineRef matches the line number every ParseCSV rejection names.
var lineRef = regexp.MustCompile(`^egress: line ([0-9]+): `)

// FuzzParseCSV holds the egress list reader to its contract: it never
// panics, every rejection is an error naming a line of the input, and
// any input it accepts writes back out with WriteCSV to bytes that parse
// to the identical list.
func FuzzParseCSV(f *testing.F) {
	_, l := testList(f)
	// A small slice of the generated list: both families, blank cities.
	var small List
	for i := 0; i < len(l.Entries); i += len(l.Entries) / 24 {
		small.Entries = append(small.Entries, l.Entries[i])
	}
	small.Entries = append(small.Entries, Entry{Prefix: l.Entries[0].Prefix, CC: "DE"})
	var buf bytes.Buffer
	if err := small.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, s := range []string{
		"",
		"# comment\n\n10.0.0.0/24,US,US-region-00,US-city-000\n",
		"172.224.226.0/27, US , r , c \r\n2a02:26f7:b3c0:4000::/64,DE,,\n",
		"10.0.0.1/24,US,r,c\n::ffff:1.2.3.4/128,GB,r,c",
		"not-a-prefix,US,r,c\n",
		"10.0.0.0/24,XX,r,c\n",
		"10.0.0.0/24,US,r\n",
		"10.0.0.0/24,US,r,c,extra\n",
		"10.0.0.0/33,US,r,c\n",
		"fe80::1%eth0/64,US,r,c\n",
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ParseCSV(bytes.NewReader(data))
		if err != nil {
			m := lineRef.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("rejection names no line: %v", err)
			}
			if n, _ := strconv.Atoi(m[1]); n < 1 || n > strings.Count(string(data), "\n")+1 {
				t.Fatalf("rejection names line %d of a %d-line input: %v", n, strings.Count(string(data), "\n")+1, err)
			}
			return
		}
		var out bytes.Buffer
		if err := got.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		again, err := ParseCSV(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("accepted list re-parses with error: %v\n%q", err, out.Bytes())
		}
		if len(again.Entries) != len(got.Entries) {
			t.Fatalf("re-parse has %d entries, want %d", len(again.Entries), len(got.Entries))
		}
		for i := range got.Entries {
			if again.Entries[i] != got.Entries[i] {
				t.Fatalf("entry %d re-parses as %+v, want %+v", i, again.Entries[i], got.Entries[i])
			}
		}
	})
}
