package netchaos

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config selects which faults the proxy injects. The zero value forwards
// traffic untouched; fields compose freely. Fault scheduling is
// counter-based (every Nth accept, every Nth chunk) so a given config and
// traffic pattern reproduce the same fault sequence — jitter draws from the
// seeded generator, not the global one.
type Config struct {
	// Seed initializes the jitter generator. Two proxies with the same
	// Seed draw identical jitter sequences.
	Seed int64
	// DropAcceptEvery kills every Nth accepted connection immediately —
	// the shape of a crashing server or a flaky link at dial time.
	// 0 disables.
	DropAcceptEvery int
	// TruncateEvery tears every Nth relayed chunk: half the chunk is
	// forwarded, then both sides of the connection are cut. The receiver
	// sees a torn frame then EOF — never a resynchronized garbage stream.
	// 0 disables.
	TruncateEvery int
	// LatencyC2S / LatencyS2C delay each relayed chunk per direction.
	LatencyC2S time.Duration
	LatencyS2C time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) per chunk,
	// drawn from the seeded generator.
	Jitter time.Duration
	// ThroughputBytesPerSec throttles each direction to roughly this rate.
	// 0 disables.
	ThroughputBytesPerSec int
	// ChunkBytes is the relay unit faults apply to. 0 = 4096.
	ChunkBytes int
}

// Counters reports what the proxy has done so far.
type Counters struct {
	Accepts        int64 // connections accepted (including dropped ones)
	DroppedAccepts int64 // connections killed at accept by DropAcceptEvery
	TruncatedConns int64 // connections cut mid-chunk by TruncateEvery
	BytesC2S       int64 // client→server bytes relayed
	BytesS2C       int64 // server→client bytes relayed
}

// Proxy is a deterministic in-process TCP fault injector: it listens on an
// ephemeral port, relays each accepted connection to a fixed target, and
// injects the faults its Config selects. SetConfig swaps fault modes live;
// Partition blackholes all traffic for a window. Safe for concurrent use.
type Proxy struct {
	ln     net.Listener
	target string

	cfg atomic.Pointer[Config]

	rngMu sync.Mutex
	rng   *rand.Rand

	accepts        atomic.Int64
	droppedAccepts atomic.Int64
	truncated      atomic.Int64
	chunks         atomic.Int64 // global chunk counter for TruncateEvery
	bytesC2S       atomic.Int64
	bytesS2C       atomic.Int64

	// partitionUntil is a unix-nano timestamp; pumps stall while it is in
	// the future.
	partitionUntil atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed chan struct{}
	wg     sync.WaitGroup
}

// New starts a proxy in front of target.
func New(target string, cfg Config) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netchaos: listen: %w", err)
	}
	p := &Proxy{
		ln:     ln,
		target: target,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		conns:  make(map[net.Conn]struct{}),
		closed: make(chan struct{}),
	}
	p.cfg.Store(&cfg)
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; dial this instead of the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetConfig swaps the fault configuration; in-flight connections pick it up
// at their next chunk. The jitter generator is not reseeded.
func (p *Proxy) SetConfig(cfg Config) { p.cfg.Store(&cfg) }

// Partition blackholes all traffic in both directions for d: chunks stall
// in the proxy (connections stay up, bytes stop flowing), the shape of a
// network partition that heals.
func (p *Proxy) Partition(d time.Duration) {
	p.partitionUntil.Store(time.Now().Add(d).UnixNano())
}

// Counters returns a snapshot of fault and traffic counters.
func (p *Proxy) Counters() Counters {
	return Counters{
		Accepts:        p.accepts.Load(),
		DroppedAccepts: p.droppedAccepts.Load(),
		TruncatedConns: p.truncated.Load(),
		BytesC2S:       p.bytesC2S.Load(),
		BytesS2C:       p.bytesS2C.Load(),
	}
}

// Close stops the listener and cuts every relayed connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	select {
	case <-p.closed:
		p.mu.Unlock()
		p.wg.Wait()
		return nil
	default:
	}
	close(p.closed)
	err := p.ln.Close()
	for conn := range p.conns {
		conn.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		n := p.accepts.Add(1)
		cfg := p.cfg.Load()
		if cfg.DropAcceptEvery > 0 && n%int64(cfg.DropAcceptEvery) == 0 {
			p.droppedAccepts.Add(1)
			conn.Close()
			continue
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		if !p.track(conn) || !p.track(up) {
			conn.Close()
			up.Close()
			continue
		}
		p.wg.Add(2)
		go p.pump(up, conn, &p.bytesC2S, true)
		go p.pump(conn, up, &p.bytesS2C, false)
	}
}

// track registers a connection for Close; false means the proxy is closing.
func (p *Proxy) track(conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.closed:
		return false
	default:
	}
	p.conns[conn] = struct{}{}
	return true
}

func (p *Proxy) untrack(conn net.Conn) {
	p.mu.Lock()
	delete(p.conns, conn)
	p.mu.Unlock()
	conn.Close()
}

// pump relays src→dst one chunk at a time, injecting the configured faults.
// Either side failing (or a truncation fault) cuts both, so a torn frame is
// always followed by EOF — the peer resyncs by reconnecting, never by
// parsing mid-stream garbage.
func (p *Proxy) pump(dst, src net.Conn, bytes *atomic.Int64, c2s bool) {
	defer p.wg.Done()
	defer p.untrack(dst)
	defer p.untrack(src)
	var buf []byte
	for {
		cfg := p.cfg.Load()
		chunk := cfg.ChunkBytes
		if chunk <= 0 {
			chunk = 4096
		}
		if cap(buf) < chunk {
			buf = make([]byte, chunk)
		}
		n, err := src.Read(buf[:chunk])
		if n > 0 {
			if !p.delay(cfg, n, c2s) {
				return // proxy closed while stalling
			}
			if cfg.TruncateEvery > 0 && p.chunks.Add(1)%int64(cfg.TruncateEvery) == 0 {
				p.truncated.Add(1)
				if half := n / 2; half > 0 {
					relay(dst, buf[:half], bytes)
				}
				return // deferred untracks cut both sides
			}
			if !relay(dst, buf[:n], bytes) {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// relay writes b to dst and counts the bytes delivered. The count goes up
// before the write, so a peer that has read the bytes always sees them in
// Counters; whatever the write fails to deliver is taken back.
func relay(dst net.Conn, b []byte, bytes *atomic.Int64) bool {
	bytes.Add(int64(len(b)))
	w, err := dst.Write(b)
	if err != nil {
		bytes.Add(int64(w - len(b)))
		return false
	}
	return true
}

// delay applies partition stalls, per-direction latency, jitter, and the
// throughput throttle for one chunk. It returns false if the proxy closed
// while the chunk was stalled.
func (p *Proxy) delay(cfg *Config, n int, c2s bool) bool {
	// Partition: stall until the blackhole lifts, polling so Close can
	// interrupt.
	for {
		until := p.partitionUntil.Load()
		wait := time.Until(time.Unix(0, until))
		if until == 0 || wait <= 0 {
			break
		}
		if wait > 10*time.Millisecond {
			wait = 10 * time.Millisecond
		}
		if !p.sleep(wait) {
			return false
		}
	}
	d := cfg.LatencyC2S
	if !c2s {
		d = cfg.LatencyS2C
	}
	if cfg.Jitter > 0 {
		p.rngMu.Lock()
		d += time.Duration(p.rng.Int63n(int64(cfg.Jitter)))
		p.rngMu.Unlock()
	}
	if cfg.ThroughputBytesPerSec > 0 {
		d += time.Duration(int64(n) * int64(time.Second) / int64(cfg.ThroughputBytesPerSec))
	}
	if d > 0 {
		return p.sleep(d)
	}
	return true
}

// sleep waits d or until the proxy closes; false means closed.
func (p *Proxy) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.closed:
		return false
	}
}
