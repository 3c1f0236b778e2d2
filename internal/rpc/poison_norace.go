//go:build !race

package rpc

const poisonReleased = false
