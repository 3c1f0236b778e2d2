package workload

import (
	"bytes"
	"testing"
)

func TestTraceRoundtrip(t *testing.T) {
	gen := NewSynthetic(SyntheticConfig{Keys: 100, Seed: 9})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, gen, 500); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 500 {
		t.Fatalf("Len = %d", rep.Len())
	}
	// Replay must equal the original stream.
	orig := NewSynthetic(SyntheticConfig{Keys: 100, Seed: 9})
	for i := 0; i < 500; i++ {
		want := orig.Next()
		got := rep.Next()
		if got != want {
			t.Fatalf("op %d: %+v vs %+v", i, got, want)
		}
	}
	if rep.wrapped != 1 {
		t.Fatalf("Wrapped = %d after exactly one pass", rep.wrapped)
	}
	// Wraparound restarts from the first op.
	first := NewSynthetic(SyntheticConfig{Keys: 100, Seed: 9}).Next()
	if got := rep.Next(); got != first {
		t.Fatalf("wrap: %+v vs %+v", got, first)
	}
}

func TestTraceEmpty(t *testing.T) {
	rep, err := ReadTrace(bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 0 {
		t.Fatalf("Len = %d", rep.Len())
	}
	if op := rep.Next(); op.Key != "" {
		t.Fatal("empty replay should produce zero ops")
	}
}

func TestTraceCorruptInputs(t *testing.T) {
	cases := map[string][]byte{
		"truncated body": {0x10, 0x01},
		"huge frame":     {0xff, 0xff, 0xff, 0xff, 0x7f},
		"missing key":    {0x02, 0x08, 0x00}, // kind only
		"garbage":        {0x03, 0xff, 0xff, 0xff},
	}
	for name, data := range cases {
		if _, err := ReadTrace(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestTracePreservesKindsAndSizes(t *testing.T) {
	gen := NewMetaKV(MetaKVConfig{Keys: 50, Seed: 4})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, gen, 300); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reads, writes := 0, 0
	for i := 0; i < rep.Len(); i++ {
		op := rep.Next()
		if op.Kind == Read {
			reads++
		} else {
			writes++
		}
		if op.ValueSize <= 0 {
			t.Fatalf("op %d has no size", i)
		}
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("trace should carry both kinds: %d/%d", reads, writes)
	}
}
