package spec_test

import (
	"fmt"
	"testing"

	"heterosgd/internal/elastic"
	"heterosgd/internal/faults"
)

// planParsers are the four parsers on the shared grammar; each returns its
// plan as a Stringer (every Plan type's String is nil-safe).
var planParsers = map[string]func(string) (fmt.Stringer, error){
	"faults":  func(s string) (fmt.Stringer, error) { return faults.Parse(s) },
	"links":   func(s string) (fmt.Stringer, error) { return faults.ParseLinks(s) },
	"proc":    func(s string) (fmt.Stringer, error) { return faults.ParseProcPlan(s) },
	"elastic": func(s string) (fmt.Stringer, error) { return elastic.Parse(s) },
}

// FuzzPlanSpecs feeds every input to all four plan parsers: none may panic,
// and a spec one accepts must render to a canonical form it parses back to
// the same rendering.
func FuzzPlanSpecs(f *testing.F) {
	for _, s := range []string{
		// The round-trip specs of the parsers' own tests.
		"crash:1:20,hang:0:10:50ms,corrupt:0:0.05",
		"drop:0:0.05,dup:1:0.1,delay:2:3:50ms,sever:1:20:2",
		"kill-worker:1:30,kill-worker:2:45,kill-coord:2,restart:300ms",
		"join:25,leave:1:60,evict:0:90",
		// Shapes at the edges of the grammar.
		"", " ", ",", "crash", "crash:x:1", "hang:0:1:nope", "drop:0:0.5,,dup:1x",
		"kill-coord:1,kill-coord:2", "restart:0s,restart:1s", "corrupt:0:NaN", "join:+7",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for name, parse := range planParsers {
			p, err := parse(s)
			if err != nil {
				continue
			}
			canon := p.String()
			back, err := parse(canon)
			if err != nil {
				t.Fatalf("%s: %q parsed, but its rendering %q does not: %v", name, s, canon, err)
			}
			if got := back.String(); got != canon {
				t.Fatalf("%s: %q renders %q, which renders back as %q", name, s, canon, got)
			}
		}
	})
}
