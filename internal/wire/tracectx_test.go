package wire

import (
	"bytes"
	"testing"
)

func TestTraceContextRoundtrip(t *testing.T) {
	for _, tc := range []struct {
		traceID, spanID uint64
		sampled         bool
		deadline        int64
	}{
		{0, 0, false, 0},
		{1, 2, true, 0},
		{^uint64(0), ^uint64(0), true, 0},
		{0xdeadbeefcafe, 7, false, 0},
		{1, 2, true, 1},
		{3, 4, false, 1_700_000_000_000_000_000},
		{0, 0, false, -1},
	} {
		b := AppendTraceContext(nil, tc.traceID, tc.spanID, tc.sampled, tc.deadline)
		want := traceContextSize
		if tc.deadline != 0 {
			want = traceContextDeadlineSize
		}
		if len(b) != want {
			t.Fatalf("encoded %d bytes, want %d", len(b), want)
		}
		gotT, gotS, gotF, gotD, n, err := DecodeTraceContext(b)
		if err != nil || gotT != tc.traceID || gotS != tc.spanID || gotF != tc.sampled || gotD != tc.deadline {
			t.Fatalf("roundtrip %+v -> %d/%d/%v/%d, %v", tc, gotT, gotS, gotF, gotD, err)
		}
		if n != len(b) {
			t.Fatalf("consumed %d bytes, want %d", n, len(b))
		}
	}
}

func TestTraceContextFailsClosed(t *testing.T) {
	valid := AppendTraceContext(nil, 1, 2, true, 0)
	// Every truncation errors.
	for i := 0; i < traceContextSize; i++ {
		if _, _, _, _, _, err := DecodeTraceContext(valid[:i]); err == nil {
			t.Fatalf("%d-byte prefix decoded", i)
		}
	}
	// Every unknown flag bit errors (bit 1 is the deadline flag, known).
	for bit := 2; bit < 8; bit++ {
		b := append([]byte(nil), valid...)
		b[16] |= 1 << bit
		if _, _, _, _, _, err := DecodeTraceContext(b); err == nil {
			t.Fatalf("unknown flag bit %d accepted", bit)
		}
	}
	// A deadline flag without the deadline word errors.
	short := append([]byte(nil), valid...)
	short[16] |= 0x02
	if _, _, _, _, _, err := DecodeTraceContext(short); err == nil {
		t.Fatal("deadline flag without deadline bytes accepted")
	}
	// Truncated deadline word errors.
	withDL := AppendTraceContext(nil, 1, 2, true, 99)
	for i := traceContextSize; i < traceContextDeadlineSize; i++ {
		if _, _, _, _, _, err := DecodeTraceContext(withDL[:i]); err == nil {
			t.Fatalf("%d-byte deadline prefix decoded", i)
		}
	}
	// A deadline flag with a zero deadline is non-canonical and errors.
	zeroDL := append([]byte(nil), withDL...)
	for i := traceContextSize; i < traceContextDeadlineSize; i++ {
		zeroDL[i] = 0
	}
	if _, _, _, _, _, err := DecodeTraceContext(zeroDL); err == nil {
		t.Fatal("zero deadline with deadline flag accepted")
	}
}

// FuzzTraceContext checks the decoder over arbitrary byte strings: it
// must never panic, must fail closed on anything but a well-formed
// block, and must agree with the encoder on everything it accepts.
func FuzzTraceContext(f *testing.F) {
	f.Add(AppendTraceContext(nil, 1, 2, true, 0))
	f.Add(AppendTraceContext(nil, 0, 0, false, 0))
	f.Add(AppendTraceContext(nil, ^uint64(0), 1<<63, true, 0))
	f.Add(AppendTraceContext(nil, 1, 2, true, 1_700_000_000_000_000_000))
	f.Add(AppendTraceContext(nil, 0, 0, false, 1))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, traceContextSize))
	f.Add(bytes.Repeat([]byte{0xff}, traceContextSize-1))
	f.Add(bytes.Repeat([]byte{0xff}, traceContextDeadlineSize))
	f.Add(append(AppendTraceContext(nil, 3, 4, false, 0), 0xaa, 0xbb))
	f.Fuzz(func(t *testing.T, b []byte) {
		traceID, spanID, sampled, deadline, n, err := DecodeTraceContext(b)
		if err != nil {
			// The only legal rejections: truncation, unknown flags, or a
			// non-canonical zero deadline under the deadline flag.
			if len(b) >= traceContextSize && b[16]&^byte(0x03) == 0 {
				hasDL := b[16]&0x02 != 0
				ok := hasDL && (len(b) < traceContextDeadlineSize ||
					bytes.Equal(b[traceContextSize:traceContextDeadlineSize], make([]byte, 8)))
				if !ok {
					t.Fatalf("rejected a well-formed block: % x", b)
				}
			}
			if traceID != 0 || spanID != 0 || sampled || deadline != 0 || n != 0 {
				t.Fatalf("error with non-zero results: %d/%d/%v/%d/%d", traceID, spanID, sampled, deadline, n)
			}
			return
		}
		if n != traceContextSize && n != traceContextDeadlineSize {
			t.Fatalf("consumed %d bytes", n)
		}
		if len(b) < n {
			t.Fatalf("decoded %d bytes, consumed %d", len(b), n)
		}
		// Re-encoding what was decoded reproduces the input block exactly,
		// including its length — the encoding is canonical.
		if enc := AppendTraceContext(nil, traceID, spanID, sampled, deadline); !bytes.Equal(enc, b[:n]) {
			t.Fatalf("decode/encode mismatch:\n in: % x\nout: % x", b[:n], enc)
		}
	})
}
