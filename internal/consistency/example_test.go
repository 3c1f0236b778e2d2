package consistency_test

import (
	"bytes"
	"fmt"

	"cachecost/internal/consistency"
	"cachecost/internal/core"
)

// ExampleRunDelayedWriteScenario reproduces the paper's Figure 8 anomaly
// and its write-fencing fix.
func ExampleRunDelayedWriteScenario() {
	unfenced := consistency.RunDelayedWriteScenario(false)
	fenced := consistency.RunDelayedWriteScenario(true)
	fmt.Println("anomaly without fencing:", unfenced.Stale)
	fmt.Println("anomaly with fencing:   ", fenced.Stale)
	// Output:
	// anomaly without fencing: true
	// anomaly with fencing:    false
}

// ExampleOwnedCache shows the §6 design: the owner serves linearizable
// reads without any storage contact, because all writes route through it.
func ExampleOwnedCache() {
	f, err := OwnedCache()
	if err != nil {
		fmt.Println(err)
		return
	}
	f.m.Reset()
	for i := 0; i < 100; i++ {
		f.app.Read("k0") // the first read loads; the rest are owner hits
	}
	v := core.ValueFor("k0", 128)
	f.app.Write("k0", v) // an owner-routed write-through
	got, _ := f.app.Read("k0")

	p := f.m.Path()
	fmt.Printf("fresh=%v servedFromCache=%d/%d storageStatements=%d\n",
		bytes.Equal(got, core.Digest(v)), p.LinkedHits, p.LinkedHits+p.LinkedMisses, p.SQLStatements)
	// Output:
	// fresh=true servedFromCache=100/101 storageStatements=2
}

// ExampleVersionedCache shows the §5.5 baseline: linearizable, but every
// read pays a storage version check.
func ExampleVersionedCache() {
	f, err := VersionedCache()
	if err != nil {
		fmt.Println(err)
		return
	}
	f.m.Reset()
	for i := 0; i < 100; i++ {
		f.app.Read("k0")
	}
	p := f.m.Path()
	fmt.Printf("reads=%d loads=%d versionChecks=%d\n",
		p.Requests, p.LinkedMisses, p.SQLStatements-p.LinkedMisses)
	// Output:
	// reads=100 loads=1 versionChecks=100
}
