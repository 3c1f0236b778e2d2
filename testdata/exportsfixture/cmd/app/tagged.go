//go:build fixturetag

package main

import "fixture/internal/lib"

func init() { lib.TaggedOnly() }
