package experiments

import "testing"

func TestLookupResolvesEveryName(t *testing.T) {
	want := map[string]string{
		"fig4": "fig4", "fig5": "fig5", "fig6": "fig6", "fig7": "fig7", "fig8": "fig8",
		"fig9": "table3", "fig10": "table5", "fig11": "table6", "fig12": "table6",
		"table2": "table2", "table3": "table3", "table4": "table4", "table5": "table5",
		"table6": "table6", "ablations": "ablations",
	}
	for name, canonical := range want {
		e, ok := Lookup(name)
		if !ok || e.Name != canonical {
			t.Errorf("Lookup(%q) = %q, %v; want %q", name, e.Name, ok, canonical)
		}
	}
	for _, name := range []string{"", "all", "benchjson", "compare", "fig13", "Table2"} {
		if e, ok := Lookup(name); ok {
			t.Errorf("Lookup(%q) resolved to %q", name, e.Name)
		}
	}
	names := map[string]bool{}
	for _, e := range Catalog() {
		for _, n := range append([]string{e.Name}, e.Aliases...) {
			if names[n] {
				t.Errorf("name %q registered twice", n)
			}
			names[n] = true
		}
		if len(e.Studies) == 0 {
			t.Errorf("%s has no study", e.Name)
		}
		for _, s := range e.Studies {
			if (s.Name == "") != (len(e.Studies) == 1) {
				t.Errorf("%s: study name %q; only a single study is unnamed", e.Name, s.Name)
			}
		}
	}
	if len(names) != len(want) {
		t.Errorf("catalog answers to %d names, want %d", len(names), len(want))
	}
}
