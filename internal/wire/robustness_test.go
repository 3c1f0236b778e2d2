package wire

import (
	"math/rand"
	"testing"
)

// TestDecoderNeverPanicsOnGarbage drives the decoder with random bytes:
// every outcome must be a clean error or valid field, never a panic or
// an out-of-bounds read. The RPC layer feeds network input through this
// code, so it is the module's safety boundary.
func TestDecoderNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5000; trial++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		d := NewDecoder(buf)
		for !d.Done() {
			f, typ, err := d.Next()
			if err != nil {
				break
			}
			if f == 0 {
				t.Fatalf("field 0 escaped validation on %x", buf)
			}
			var bodyErr error
			switch typ {
			case tVarint:
				_, bodyErr = d.Uint64()
			case tFixed64:
				bodyErr = d.Skip(typ)
			case TBytes:
				_, bodyErr = d.Bytes()
			}
			if bodyErr != nil {
				break
			}
		}
	}
}

// TestDecoderSkipNeverPanicsOnGarbage exercises the Skip path the same way.
func TestDecoderSkipNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		d := NewDecoder(buf)
		for !d.Done() {
			_, typ, err := d.Next()
			if err != nil {
				break
			}
			if err := d.Skip(typ); err != nil {
				break
			}
		}
	}
}

// TestMessageDecodersRejectGarbage checks the typed decoders error (not
// panic) on arbitrary input.
func TestMessageDecodersRejectGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		buf := make([]byte, rng.Intn(48))
		rng.Read(buf)
		var m testMsg
		_ = Unmarshal(buf, &m) // must not panic; error or lossy decode both fine
	}
}
