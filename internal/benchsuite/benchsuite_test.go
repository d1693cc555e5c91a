package benchsuite

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestSectionsMatchBaseline pins the gated list to the committed
// baseline: a renamed, reordered or dropped section fails here instead
// of only warning in the compare gate.
func TestSectionsMatchBaseline(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_compute.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline []Record
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, r := range baseline {
		want = append(want, r.Section)
	}
	seen := map[string]bool{}
	for _, s := range Sections() {
		if seen[s.Name] {
			t.Errorf("section %s registered twice", s.Name)
		}
		seen[s.Name] = true
		got = append(got, s.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("gated sections differ from BENCH_compute.json\ngot  %q\nwant %q", got, want)
	}
}

func TestMeasureRejectsFailingSection(t *testing.T) {
	ok := Section{Name: "ok", Bench: func(*testing.B) {}}
	broken := Section{Name: "broken/section", Bench: func(b *testing.B) { b.Fatal("deliberate failure") }}
	records, err := Measure([]Section{ok, broken})
	if err == nil || !strings.Contains(err.Error(), "broken/section") {
		t.Fatalf("Measure(failing section) = %v, %v; want an error naming the section", records, err)
	}
	records, err = Measure([]Section{ok})
	if err != nil || len(records) != 1 || records[0].Section != "ok" {
		t.Fatalf("Measure(ok) = %v, %v", records, err)
	}
}

func TestLazyBuildsOncePerGroupTurn(t *testing.T) {
	builds := map[string]int{}
	shared, other := new(fixtureGroup), new(fixtureGroup)
	a := lazy(shared, func(*testing.B) (int, error) { builds["a"]++; return 1, nil })
	c := lazy(other, func(*testing.B) (int, error) { builds["c"]++; return 2, nil })
	use := func(get func(*testing.B) int) Section {
		return Section{Name: "use", Bench: func(b *testing.B) { get(b) }}
	}
	// a is built once across every ramp-up call of two sections, dropped
	// when c's group runs, and rebuilt on its next use.
	if _, err := Measure([]Section{use(a), use(a), use(c), use(a)}); err != nil {
		t.Fatal(err)
	}
	if builds["a"] != 2 || builds["c"] != 1 {
		t.Errorf("builds = %v, want a:2 c:1", builds)
	}
}
