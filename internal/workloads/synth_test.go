package workloads

import "testing"

func TestSynthDeterministic(t *testing.T) {
	a, b := Synth(7), Synth(7)
	if a.Name != "synth-7" || a.Source != b.Source || a.Label != b.Label {
		t.Fatal("same seed must build the identical workload")
	}
	if c := Synth(8); c.Source == a.Source {
		t.Fatal("different seeds must generate different programs")
	}
	if len(a.Train) == 0 || len(a.Ref) == 0 {
		t.Fatal("synthetic workloads need train/ref inputs")
	}
}

func TestSynthSeed(t *testing.T) {
	cases := []struct {
		name string
		seed uint64
		ok   bool
	}{
		{"synth-42", 42, true},
		{"synth-0", 0, true},
		{"synth-", 0, false},
		{"synth-x", 0, false},
		{"synth--3", 0, false},
		{"gzip_comp", 0, false},
		{"synth", 0, false},
		{"", 0, false},
	}
	for _, tc := range cases {
		seed, ok := SynthSeed(tc.name)
		if ok != tc.ok || seed != tc.seed {
			t.Errorf("SynthSeed(%q) = (%d, %v), want (%d, %v)", tc.name, seed, ok, tc.seed, tc.ok)
		}
	}
}

func TestSynthSet(t *testing.T) {
	a, b := SynthSet(7, 4), SynthSet(7, 4)
	if len(a) != 4 {
		t.Fatalf("len = %d", len(a))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Source != b[i].Source {
			t.Fatal("SynthSet is not deterministic")
		}
		if seen[a[i].Name] {
			t.Fatalf("duplicate synthetic workload %s", a[i].Name)
		}
		seen[a[i].Name] = true
	}
	if c := SynthSet(8, 4); c[0].Name == a[0].Name {
		t.Fatal("different root seeds must derive different sets")
	}
}

func TestResolve(t *testing.T) {
	if w, err := Resolve("gzip_comp"); err != nil || w.Name != "gzip_comp" {
		t.Fatalf("Resolve(gzip_comp) = %v, %v", w, err)
	}
	if w, err := Resolve("synth-3"); err != nil || w.Name != "synth-3" {
		t.Fatalf("Resolve(synth-3) = %v, %v", w, err)
	}
	if _, err := Resolve("nope"); err == nil {
		t.Fatal("Resolve must reject unknown names")
	}
}
