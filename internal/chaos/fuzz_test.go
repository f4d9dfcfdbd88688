package chaos

import (
	"reflect"
	"testing"
)

// FuzzParseSpec checks the fault-spec parser on arbitrary input: it must
// never panic, and any spec it accepts must round-trip through the
// canonical String rendering — re-parsing the rendering succeeds, yields
// an equal plan, and renders to the same string (String is a fixed point
// after one canonicalization).
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"seed=7;node=3@2-5;link=10@1-;decohere=0.02",
		"node=0",
		"node=3@2-5,link=1@4-4",
		"decohere=1",
		"decohere=0",
		"seed=-1;node=2@0-",
		"seed=9223372036854775807",
		"node=3@five-6",
		"bogus=1",
		"node=",
		";;;",
		"decohere=1.5",
		"decohere=NaN",
		"cut:100,200,50@2-5",
		"cut:!0,0,1000",
		"cut:1,2",
		"cut:1,2,-5",
		"cut:NaN,0,1",
		"brown:3,0.5@1-4",
		"brown:!2,0.25",
		"brown:1,1.5",
		"brown:1,NaN",
		"brown:1,0.5@1-3;brown:1,0.25@2-6",
		"flap:1,4,0.5@0-8",
		"flap:!0,3,0.75@2-",
		"flap:1,0,0.5",
		"flap:1,4,-1",
		"flap:2,4,0.5@0-;flap:2,2,0.5@9-",
		"seed=9;node=1@1-2;cut:10,20,5@1-3;brown:0,0.5@4-6;flap:2,2,0.5@1-;decohere=0.1",
		"node=1@1-2,cut:1,2,3",
		"cut:",
		"brown:;flap:",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseSpec(s)
		if err != nil {
			return
		}
		if p == nil {
			t.Fatalf("ParseSpec(%q) returned nil plan and nil error", s)
		}
		canon := p.String()
		q, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q (from %q) does not re-parse: %v", canon, s, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round-trip changed the plan: %q gave %+v, canonical %q gave %+v", s, p, canon, q)
		}
		if again := q.String(); again != canon {
			t.Fatalf("String is not canonical: %q then %q", canon, again)
		}
	})
}
