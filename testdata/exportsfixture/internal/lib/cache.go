package lib

// Cache is generic; cmd/app calls its methods through Cache[int].
type Cache[V any] struct{ v V }

// Get is called through an instantiation: kept.
func (c *Cache[V]) Get() V { return c.v }

// Put is called through an instantiation: kept.
func (c *Cache[V]) Put(v V) { c.v = v }
