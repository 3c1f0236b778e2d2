// Package lib is the export scan's fixture: each declaration's comment
// says what the scan must conclude about it.
package lib

import "errors"

// Unreferenced is named nowhere: flagged.
func Unreferenced() {}

// OnlyTested is named only from lib_test.go: flagged.
func OnlyTested() {}

// TaggedOnly is named only from a file the fixturetag build tag
// excludes: flagged.
func TaggedOnly() {}

// LocalOnly is named only in this file: flagged.
func LocalOnly() int { return Limit }

// Used is called from cmd/app: kept.
func Used() int { return LocalOnly() }

// Limit is read from cmd/app: kept.
const Limit = 4

// ErrEmpty is matched by cmd/app: kept.
var ErrEmpty = errors.New("lib: empty")

// Stack implements container/heap's Interface, which nothing in this
// module names: its methods are kept.
type Stack []int

func (s Stack) Len() int           { return len(s) }
func (s Stack) Less(i, j int) bool { return s[i] < s[j] }
func (s Stack) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s *Stack) Push(x any)        { *s = append(*s, x.(int)) }
func (s *Stack) Pop() any          { old := *s; x := old[len(old)-1]; *s = old[:len(old)-1]; return x }

// Name implements fmt.Stringer: String is kept.
type Name string

func (n Name) String() string { return string(n) }

// Outer satisfies cmd/app's sizer through the Size it promotes from
// inner: Size is kept.
type Outer struct{ inner }

type inner struct{}

func (inner) Size() int { return 0 }
