package main

import (
	"errors"
	"fmt"

	"fixture/internal/lib"
)

type sizer interface{ Size() int }

var _ sizer = lib.Outer{}

func main() {
	c := &lib.Cache[int]{}
	c.Put(lib.Used() + lib.Limit)
	cfg := lib.Config{Keyed: 1}
	cfg.Assigned = 2
	fmt.Println(c.Get(), errors.Is(nil, lib.ErrEmpty), lib.Name("x"), lib.Stack{}, cfg)
}
