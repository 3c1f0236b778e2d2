package linkedcache

import (
	"fmt"
	"sync"
	"testing"

	"cachecost/internal/cache"
	"cachecost/internal/trace"
)

// TestCacheConcurrentGetOrLoad runs the linked cache's hit path from 8
// goroutines at once. Returned values are shared live objects
// (zero-copy), so the contract under test is: loaders publish immutable
// values, concurrent Gets may all hold the same slice, and nothing tears.
func TestCacheConcurrentGetOrLoad(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20}, func(k string, v []byte) int64 {
		return int64(len(k) + len(v) + 64)
	})
	const keys, workers, opsPer = 48, 8, 400
	build := func(key string, gen byte) []byte {
		v := make([]byte, 256)
		for j := range v {
			v[j] = gen
		}
		return v
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("k%d", (w*17+i)%keys)
				if i%5 == 0 {
					// A write publishes a fresh value; in-place mutation of
					// the previous one would break concurrent readers.
					c.Put(key, build(key, byte(w)))
					continue
				}
				v, _, err := c.GetOrLoadCtx(trace.SpanContext{}, key, func(trace.SpanContext) ([]byte, error) {
					return build(key, byte(w)), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				for j := 1; j < len(v); j++ {
					if v[j] != v[0] {
						t.Errorf("torn value for %s", key)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var st cache.Stats = c.Stats()
	if st.Hits == 0 {
		t.Fatal("no hits under a 48-key hot set; cache not serving")
	}
}
