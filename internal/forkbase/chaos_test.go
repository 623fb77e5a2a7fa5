package forkbase

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/netchaos"
	"repro/internal/postree"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/version"
)

// soakBatch is one client write: five entries under a client-unique key
// prefix, so batches from different clients never collide and the final
// key space is the union of everything sent.
func soakBatch(client, round int) []core.Entry {
	out := make([]core.Entry, 5)
	for i := range out {
		out[i] = core.Entry{
			Key:   []byte(fmt.Sprintf("c%02d-k%04d-%d", client, round, i)),
			Value: []byte(fmt.Sprintf("v-%02d-%04d-%d", client, round, i)),
		}
	}
	return out
}

// TestServingChaosSoak drives concurrent clients through a fault-injecting
// proxy while the proxy rotates chaos modes with the clients' progress,
// then asserts the three serving-layer safety properties: every
// acknowledged write survives, the head converges byte-identical to a
// clean rebuild of the same contents, and the whole version graph scrubs
// clean.
func TestServingChaosSoak(t *testing.T) {
	checkNoGoroutineLeaks(t)
	cfg := postree.ConfigForNodeSize(256)
	s := store.NewMemStore()
	repo := version.NewRepo(s)
	repo.RegisterLoader("POS-Tree", func(st store.Store, root hash.Hash, height int) (core.Index, error) {
		return postree.Load(st, cfg, root, height), nil
	})
	seed := entriesN(200)
	idx, err := postree.Build(s, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Commit("main", idx, "soak seed"); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServletRepo(repo, "main")
	if err != nil {
		t.Fatal(err)
	}
	srv.WithOptions(ServerOptions{MaxConns: 64, MaxInflight: 32, IdleTimeout: 2 * time.Second})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	proxy, err := netchaos.New(addr, netchaos.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	const (
		clients = 4
		rounds  = 20
	)
	type ack struct {
		client, round int
	}
	var (
		ackMu sync.Mutex
		acked = map[ack]bool{}
	)
	clientOpts := Options{
		Timeout:          2 * time.Second,
		Retries:          6,
		RetryBase:        2 * time.Millisecond,
		BreakerThreshold: -1, // sheds here come from chaos, not load; keep retrying
		CacheBytes:       1 << 20,
	}

	// Rotate chaos modes as the clients progress: each mode gets an equal
	// share of the clients' rounds, so every mode sees traffic however
	// fast or slow the machine runs the rounds. The sequence ends clean so
	// stragglers can finish.
	modes := []netchaos.Config{
		{Seed: 42}, // clean warmup
		{Seed: 42, LatencyC2S: time.Millisecond, Jitter: 2 * time.Millisecond}, // slow link
		{Seed: 42, DropAcceptEvery: 3},                                         // flaky dials
		{Seed: 42, TruncateEvery: 8},                                           // torn frames
		{Seed: 42, ThroughputBytesPerSec: 256 << 10},                           // thin pipe
		{Seed: 42}, // clean cooldown
	}
	var (
		modeMu  sync.Mutex
		started int // client rounds begun so far
		mode    = -1
	)
	advance := func() {
		modeMu.Lock()
		defer modeMu.Unlock()
		next := started * len(modes) / (clients * rounds)
		started++
		if next == mode {
			return
		}
		mode = next
		proxy.SetConfig(modes[mode])
		if mode == 2 {
			proxy.Partition(80 * time.Millisecond) // blackhole mid-soak
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var cli *Client
			defer func() {
				if cli != nil {
					cli.Close()
				}
			}()
			for r := 0; r < rounds; r++ {
				// Advance the chaos rotation, pace the rounds, and redial
				// periodically so accept-time faults see fresh dials too.
				advance()
				time.Sleep(8 * time.Millisecond)
				if cli != nil && r%5 == 4 {
					cli.Close()
					cli = nil
				}
				if cli == nil {
					var err error
					cli, err = DialOptions(proxy.Addr(), posLoader(cfg), clientOpts)
					if err != nil {
						continue // chaos ate the dial; try again next round
					}
				}
				if err := cli.PutBatch(soakBatch(c, r)); err == nil {
					ackMu.Lock()
					acked[ack{c, r}] = true
					ackMu.Unlock()
				} else if errors.Is(err, ErrBusy) || true {
					// Any failure: the write may or may not have applied
					// server-side. Drop the client so the next round
					// redials through fresh chaos.
					cli.Close()
					cli = nil
				}
				if cli != nil && r%3 == 0 {
					// Reads and queries ride along; their results are not
					// asserted mid-chaos (a torn frame fails them), only
					// that they never wedge the client.
					_, _, _ = cli.Get([]byte("key-00042"))
					_, _, _ = cli.Query(query.Query{Lo: []byte("key-00000"), Hi: []byte("key-00050")})
				}
			}
		}(c)
	}

	wg.Wait()
	proxy.SetConfig(netchaos.Config{Seed: 42}) // chaos off for verification

	if c := proxy.Counters(); c.DroppedAccepts == 0 && c.TruncatedConns == 0 {
		t.Fatalf("chaos injected nothing (%+v); the soak exercised no faults", c)
	}

	// Verification runs on a direct connection — the proxy has done its job.
	cli, err := DialOptions(addr, posLoader(cfg), Options{CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// 1. Acked-write survival: every acknowledged batch is fully readable.
	ackMu.Lock()
	ackedList := make([]ack, 0, len(acked))
	for a := range acked {
		ackedList = append(ackedList, a)
	}
	ackMu.Unlock()
	if len(ackedList) == 0 {
		t.Fatal("no write was ever acked; chaos was too brutal for the test to mean anything")
	}
	for _, a := range ackedList {
		for _, e := range soakBatch(a.client, a.round) {
			v, ok, err := cli.Get(e.Key)
			if err != nil || !ok || !bytes.Equal(v, e.Value) {
				t.Fatalf("acked write %q lost: %q, %v, %v", e.Key, v, ok, err)
			}
		}
	}

	// 2. Reconciliation: unacked batches may or may not have applied
	// (the ack could have died on the wire after the commit). Re-send
	// everything on the clean path — content addressing makes replays
	// idempotent — so the final contents are exactly seed + all batches.
	for c := 0; c < clients; c++ {
		for r := 0; r < rounds; r++ {
			if err := cli.PutBatch(soakBatch(c, r)); err != nil {
				t.Fatalf("reconcile batch c%d r%d: %v", c, r, err)
			}
		}
	}
	if err := cli.Refresh(); err != nil {
		t.Fatal(err)
	}
	gotRoot, _ := cli.Root()

	// 3. Convergence: the head must be byte-identical to a clean one-shot
	// build of the same contents — the POS-tree's structural invariance
	// means any surviving chaos artifact (lost entry, double-applied
	// batch, torn node) changes the root.
	var all []core.Entry
	all = append(all, seed...)
	for c := 0; c < clients; c++ {
		for r := 0; r < rounds; r++ {
			all = append(all, soakBatch(c, r)...)
		}
	}
	clean, err := postree.Build(store.NewMemStore(), cfg, core.SortEntries(all))
	if err != nil {
		t.Fatal(err)
	}
	cleanRoot := clean.RootHash()
	if cleanRoot != gotRoot {
		t.Fatalf("post-chaos head %x != clean rebuild %x", gotRoot[:8], cleanRoot[:8])
	}

	// 4. The version graph scrubs clean: every commit reachable, every
	// node readable and hash-consistent.
	rep, err := repo.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verify after chaos = %s, faults %v", rep, rep.Faults)
	}
}
