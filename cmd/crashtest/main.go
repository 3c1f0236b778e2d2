// crashtest is the kill-loop harness pinning the durable kv engine's
// recovery guarantee: every acknowledged write survives process death,
// and no torn record is ever served.
//
// The harness re-execs itself as a writer child against one on-disk
// store directory. The child appends batches of deterministic records
// (key and value both derived from the sequence number alone), calls
// Sync, and only then prints "ACK <seq>" — so an ACK the parent has
// read implies the batch was durable before the child could die. The
// parent SIGKILLs the child at a seeded random point; some iterations
// stretch every fsync with a wall-clock sleep so the kill lands
// mid-fsync, and some hand the child a torn-write injection so it
// dies, mid-record, by its own crash-only panic instead of a signal.
// After each death the parent reopens the directory and checks
//
//  1. recovery succeeds,
//  2. every key an acknowledged write created still exists and holds a
//     value at least as new as the last acknowledged write to it,
//  3. every surviving record — acked or not — byte-matches its
//     re-derivation from the sequence number (nothing torn is served).
//
// State accumulates across iterations, so each recovery runs on top of
// all previous crashes. Usage:
//
//	go run ./cmd/crashtest -n 200        # local soak
//	go run -race ./cmd/crashtest -n 25   # CI smoke
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cachecost/internal/fault"
	"cachecost/internal/storage/kv"
)

const keyspace = 1024 // writes wrap: key = seq mod keyspace

var (
	flagN     = flag.Int("n", 200, "kill-loop iterations")
	flagSeed  = flag.Int64("seed", 1, "base seed for kill timing and fault choice")
	flagDir   = flag.String("dir", "", "store directory (default: fresh temp dir)")
	flagBatch = flag.Int("batch", 8, "writes per acknowledged batch")
	flagV     = flag.Bool("v", false, "per-iteration progress")

	// child-mode flags
	flagChild = flag.Bool("child", false, "internal: run as the writer child")
	flagStart = flag.Int64("start", 0, "internal: first sequence number")
	flagStall = flag.Duration("stall", 0, "internal: per-fsync sleep")
	flagTorn  = flag.Int64("torn", 0, "internal: tear the Nth write call")
)

func main() {
	flag.Parse()
	if *flagChild {
		childMain()
		return
	}
	if err := parentMain(); err != nil {
		fmt.Fprintf(os.Stderr, "crashtest: FAIL: %v\n", err)
		os.Exit(1)
	}
}

// splitmix is the value/length derivation PRNG — the same function the
// verifier uses, so a record is checkable from its sequence number.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func keyFor(seq int64) []byte {
	return []byte(fmt.Sprintf("k%06d", seq%keyspace))
}

// valFor derives record seq's value: a parseable "v<seq>." header
// followed by pseudo-random filler. Any bit out of place fails the
// byte-compare in verify — that is the torn-record detector.
func valFor(seq int64) []byte {
	h := splitmix(uint64(seq))
	v := []byte(fmt.Sprintf("v%d.", seq))
	n := len(v) + 16 + int(h%481)
	s := splitmix(h)
	for len(v) < n {
		s = splitmix(s)
		v = append(v, byte(s))
	}
	return v
}

// seqOf recovers the sequence number from a stored value.
func seqOf(val []byte) (int64, bool) {
	if len(val) < 3 || val[0] != 'v' {
		return 0, false
	}
	dot := bytes.IndexByte(val, '.')
	if dot < 2 {
		return 0, false
	}
	seq, err := strconv.ParseInt(string(val[1:dot]), 10, 64)
	return seq, err == nil
}

func childMain() {
	inner, err := kv.DirFS(*flagDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: %v\n", err)
		os.Exit(2)
	}
	ffs := fault.NewFS(inner, fault.FSOptions{
		SyncSleep:      *flagStall,
		TornWriteAfter: *flagTorn,
	})
	// Small budgets keep flush and compaction in the kill window, so
	// crashes land during every phase of the engine's lifecycle, not
	// just WAL appends. A torn write makes the engine panic (crash-only
	// durability: a failed write promises nothing), which is exactly
	// the process death the parent wants to observe.
	s, err := kv.Open(kv.Config{
		FS:            ffs,
		CacheBytes:    16 << 10,
		MemtableBytes: 32 << 10,
		WALSyncEvery:  *flagBatch,
		CompactAt:     3,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: open: %v\n", err)
		os.Exit(2)
	}
	out := bufio.NewWriter(os.Stdout)
	for seq := *flagStart; ; {
		for j := 0; j < *flagBatch; j++ {
			s.Put(keyFor(seq), valFor(seq))
			seq++
		}
		if err := s.Sync(); err != nil {
			fmt.Fprintf(os.Stderr, "child: sync: %v\n", err)
			os.Exit(2)
		}
		// The ACK leaves this process only after Sync has returned:
		// anything the parent reads is durable.
		fmt.Fprintf(out, "ACK %d\n", seq-1)
		out.Flush()
	}
}

func parentMain() error {
	dir := *flagDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "crashtest-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*flagSeed))

	var (
		acked                         int64 = -1 // highest ACK ever read
		nextStart                     int64
		totalAcks                     int64
		kills, stallKills, tornDeaths int
	)
	for i := 0; i < *flagN; i++ {
		args := []string{"-child", "-dir", dir,
			"-start", strconv.FormatInt(nextStart, 10),
			"-batch", strconv.Itoa(*flagBatch)}
		mode := "kill"
		var torn bool
		switch {
		case i%5 == 4: // die by torn write: crash-only panic mid-record
			args = append(args, "-torn", strconv.FormatInt(int64(20+rng.Intn(400)), 10))
			mode, torn = "torn", true
			tornDeaths++
		case i%3 == 1: // stretch fsyncs so the SIGKILL lands inside one
			args = append(args, "-stall", "3ms")
			mode = "stall"
			stallKills++
		default:
			kills++
		}

		cmd := exec.Command(self, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		var lastAck atomic.Int64
		lastAck.Store(-1)
		var nAcks atomic.Int64
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				var seq int64
				if _, err := fmt.Sscanf(sc.Text(), "ACK %d", &seq); err == nil {
					lastAck.Store(seq)
					nAcks.Add(1)
				}
			}
		}()

		time.Sleep(time.Duration(5+rng.Intn(45)) * time.Millisecond)
		cmd.Process.Kill() // no-op if the torn write already killed it
		cmd.Wait()
		<-drained
		if !torn && strings.Contains(stderr.String(), "panic:") {
			return fmt.Errorf("iter %d: child crashed on a healthy filesystem:\n%s", i, stderr.String())
		}
		if a := lastAck.Load(); a > acked {
			acked = a
		}
		totalAcks += nAcks.Load()

		maxSeq, err := verify(dir, acked)
		if err != nil {
			return fmt.Errorf("iter %d (%s, acked through %d): %w", i, mode, acked, err)
		}
		nextStart = maxSeq + 1
		if *flagV || (i+1)%25 == 0 {
			fmt.Printf("iter %4d/%d: %s, acked through seq %d, store at seq %d — ok\n",
				i+1, *flagN, mode, acked, maxSeq)
		}
	}
	if totalAcks == 0 {
		return fmt.Errorf("no batch was ever acknowledged — harness is not exercising the engine")
	}
	fmt.Printf("crashtest: PASS — %d iterations (%d SIGKILL, %d mid-fsync, %d torn-write deaths), %d acked batches, 0 acked writes lost, 0 torn records served\n",
		*flagN, kills, stallKills, tornDeaths, totalAcks)
	return nil
}

// verify reopens the store and checks the two recovery invariants
// against everything acknowledged so far. It returns the highest
// sequence number found, so the next child resumes numbering past any
// unacknowledged-but-durable tail.
func verify(dir string, acked int64) (maxSeq int64, err error) {
	fs, err := kv.DirFS(dir)
	if err != nil {
		return 0, err
	}
	s, err := kv.Open(kv.Config{FS: fs, CacheBytes: 16 << 10, MemtableBytes: 32 << 10, CompactAt: 3})
	if err != nil {
		return 0, fmt.Errorf("recovery failed: %w", err)
	}
	defer s.Close()

	// Invariant 1: nothing torn is served. Every surviving record must
	// byte-match its re-derivation, acknowledged or not.
	maxSeq = -1
	for _, it := range s.Scan(nil, nil) {
		seq, ok := seqOf(it.Value)
		if !ok {
			return 0, fmt.Errorf("key %q holds unparseable (torn?) value %q", it.Key, truncate(it.Value))
		}
		if !bytes.Equal(it.Key, keyFor(seq)) {
			return 0, fmt.Errorf("key %q holds record %d, which belongs at %q", it.Key, seq, keyFor(seq))
		}
		if !bytes.Equal(it.Value, valFor(seq)) {
			return 0, fmt.Errorf("record %d at key %q is corrupt: got %q", seq, it.Key, truncate(it.Value))
		}
		if seq > maxSeq {
			maxSeq = seq
		}
	}

	// Invariant 2: every acked write survives. With wrapping keys that
	// means: each key an acked write created exists, holding a record
	// no older than the last acked write to it.
	if acked >= 0 {
		hi := acked
		if hi > keyspace-1 {
			hi = keyspace - 1
		}
		for k := int64(0); k <= hi; k++ {
			val, _, ok := s.Get(keyFor(k))
			if !ok {
				return 0, fmt.Errorf("acked key %q lost", keyFor(k))
			}
			seq, _ := seqOf(val)
			if floor := acked - (acked-k)%keyspace; seq < floor {
				return 0, fmt.Errorf("key %q rolled back: holds record %d, last acked write was %d",
					keyFor(k), seq, floor)
			}
		}
	}
	return maxSeq, nil
}

func truncate(b []byte) []byte {
	if len(b) > 48 {
		return b[:48]
	}
	return b
}
