//go:build race

package rpc

// poisonReleased makes PutBuffer overwrite what it recycles. It rides
// the race build because that is where the ownership tests run: a
// use-after-release is a bug of the same family as a data race, and is
// as silent without help.
const poisonReleased = true
