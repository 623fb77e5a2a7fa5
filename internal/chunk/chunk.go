package chunk

import (
	"encoding/binary"
	"sync"

	"repro/internal/hash"
)

// Config controls boundary detection for both tree layers.
type Config struct {
	// Window is the rolling-hash window width in bytes. The paper's
	// Forkbase setup uses small windows; the Noms comparison (§5.6.2)
	// uses 67 bytes.
	Window int
	// LeafBits sets the leaf boundary probability to 2^-LeafBits per
	// byte, giving an expected leaf size of about 2^LeafBits bytes.
	LeafBits uint
	// MinLeafBytes suppresses boundaries until a leaf holds at least this
	// many bytes, bounding degenerate tiny nodes.
	MinLeafBytes int
	// MaxLeafBytes forces a boundary once a leaf reaches this many bytes,
	// bounding degenerate huge nodes.
	MaxLeafBytes int
	// InternalBits sets the internal-layer boundary probability to
	// 2^-InternalBits per child, giving an expected fanout of
	// 2^InternalBits.
	InternalBits uint
	// MaxFanout forces an internal boundary at this many children.
	MaxFanout int
}

// DefaultConfig targets the paper's experimental setting of ~1KB nodes
// (§5: "we tune the size of each index node to be approximately 1 KB").
func DefaultConfig() Config { return ConfigForNodeSize(1024) }

// ConfigForNodeSize derives a Config whose expected leaf size is target
// bytes (target must be a power of two between 128 and 1<<20). Internal
// fanout is chosen so internal nodes also weigh roughly target bytes given
// ~46-byte child entries (key + 32-byte hash + prefixes).
func ConfigForNodeSize(target int) Config {
	bits := uint(0)
	for 1<<(bits+1) <= target {
		bits++
	}
	// Expected internal entry ≈ 46 bytes; fanout 2^k ≈ target/46.
	ibits := uint(1)
	for (1<<(ibits+1))*46 <= target {
		ibits++
	}
	return Config{
		Window:       48,
		LeafBits:     bits,
		MinLeafBytes: target / 4,
		MaxLeafBytes: target * 4,
		InternalBits: ibits,
		MaxFanout:    (1 << ibits) * 4,
	}
}

// leafMask returns the bitmask the fingerprint must fully match.
func (c Config) leafMask() uint64 { return (1 << c.LeafBits) - 1 }

// buzhash table: 256 pseudo-random 64-bit values generated once from a fixed
// seed, so fingerprints are deterministic across runs and machines.
var buzTable [256]uint64

func init() {
	// splitmix64 — tiny, well-distributed, stdlib-free PRNG.
	seed := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := range buzTable {
		buzTable[i] = next()
	}
}

// Roller is a cyclic-polynomial (buzhash) rolling hash over a fixed-width
// byte window. It is a drop-in, stdlib-only stand-in for the Rabin
// fingerprint the paper references; both are uniform rolling hashes and the
// chunk-size statistics are identical.
type Roller struct {
	window int
	buf    []byte // ring buffer of the last `window` bytes
	n      int    // bytes currently in the window
	pos    int    // ring cursor
	h      uint64
	// out[x] caches rotl(buzTable[x], window) — the eviction term — so
	// the hot Roll path performs one rotation instead of two.
	out *[256]uint64
}

// outTables caches eviction tables per window width (int → *[256]uint64);
// windows are few. Rollers are built from concurrent writers, so the cache
// must be safe for concurrent first use of a width.
var outTables sync.Map

func outTableFor(w int) *[256]uint64 {
	if t, ok := outTables.Load(w); ok {
		return t.(*[256]uint64)
	}
	var t [256]uint64
	for i := range t {
		t[i] = rotl64(buzTable[i], uint(w%64))
	}
	got, _ := outTables.LoadOrStore(w, &t)
	return got.(*[256]uint64)
}

// NewRoller returns a Roller over a window of w bytes (w must be positive).
func NewRoller(w int) *Roller {
	if w <= 0 {
		panic("chunk: non-positive window")
	}
	return &Roller{window: w, buf: make([]byte, w), out: outTableFor(w)}
}

// Reset clears the window. Called at every chunk boundary so that boundary
// decisions never depend on bytes of the previous chunk.
func (r *Roller) Reset() {
	r.n, r.pos, r.h = 0, 0, 0
	// The ring contents are stale but unread while n < window.
}

// rotl64 rotates left by k (k < 64).
func rotl64(v uint64, k uint) uint64 { return v<<k | v>>(64-k) }

// Roll shifts b into the window and returns the updated fingerprint.
func (r *Roller) Roll(b byte) uint64 {
	var out uint64
	if r.n == r.window {
		// The byte leaving the window was rotated once per subsequent
		// byte; after this call's rotation that totals `window` times.
		out = r.out[r.buf[r.pos]]
	} else {
		r.n++
	}
	r.buf[r.pos] = b
	r.pos++
	if r.pos == r.window {
		r.pos = 0
	}
	r.h = rotl64(r.h, 1) ^ buzTable[b] ^ out
	return r.h
}

// Chunker decides leaf-layer boundaries for a sequence of serialized items.
// Feed items left to right with Item; it reports whether a boundary falls
// after each. The zero value is unusable; call NewChunker.
type Chunker struct {
	cfg    Config
	roller *Roller
	size   int // bytes accumulated in the current chunk
}

// NewChunker returns a leaf chunker for cfg.
func NewChunker(cfg Config) *Chunker {
	return &Chunker{cfg: cfg, roller: NewRoller(cfg.Window)}
}

// Reset restarts the chunker at a chunk boundary.
func (c *Chunker) Reset() {
	c.roller.Reset()
	c.size = 0
}

// Size returns the bytes accumulated in the current (unfinished) chunk.
func (c *Chunker) Size() int { return c.size }

// Item feeds one item's serialized bytes and reports whether a node boundary
// falls immediately after it. On a boundary the chunker resets itself.
//
// A boundary is declared when the rolling fingerprint matches the pattern at
// any byte of the item (once the chunk has reached MinLeafBytes), or when
// the chunk reaches MaxLeafBytes. Cutting only at item granularity keeps
// every entry whole within one node.
func (c *Chunker) Item(data []byte) bool {
	matched := c.scanPart(data)
	if matched || c.size >= c.cfg.MaxLeafBytes {
		c.Reset()
		return true
	}
	return false
}

// ItemKV feeds one key-value entry serialized as len(key) ‖ key ‖
// len(value) ‖ value — byte-identical to the leaf encoding — without
// materializing the buffer. This is the hot path of POS-Tree edits.
func (c *Chunker) ItemKV(key, value []byte) bool {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(key)))
	matched := c.scanPart(hdr[:n]) ||
		c.scanPart(key)
	if !matched {
		n = binary.PutUvarint(hdr[:], uint64(len(value)))
		matched = c.scanPart(hdr[:n]) || c.scanPart(value)
	}
	if matched || c.size >= c.cfg.MaxLeafBytes {
		c.Reset()
		return true
	}
	return false
}

// scanPart rolls data through the window, reporting whether the boundary
// pattern matched. Once it matches, the caller resets the chunker, so the
// unscanned remainder of the item cannot influence later decisions.
func (c *Chunker) scanPart(data []byte) bool {
	mask := c.cfg.leafMask()
	for _, b := range data {
		c.size++
		h := c.roller.Roll(b)
		if c.size >= c.cfg.MinLeafBytes && h&mask == mask {
			return true
		}
	}
	return false
}

// HashBoundary reports whether a child with digest h terminates an internal
// node: the paper's POS-Tree "directly uses the hashes to match the boundary
// pattern instead of repeatedly computing the hashes within a sliding
// window" (§3.4.3). The low InternalBits bits of the digest's first word
// must all be ones.
func HashBoundary(h hash.Hash, bits uint) bool {
	v := binary.BigEndian.Uint64(h[:8])
	mask := uint64(1)<<bits - 1
	return v&mask == mask
}

// InternalChunker decides internal-layer boundaries for POS-Tree: a pure
// per-child test on the child's digest plus a forced boundary at MaxFanout.
type InternalChunker struct {
	cfg   Config
	count int
}

// NewInternalChunker returns an internal-layer chunker for cfg.
func NewInternalChunker(cfg Config) *InternalChunker {
	return &InternalChunker{cfg: cfg}
}

// Reset restarts the chunker at a node boundary.
func (c *InternalChunker) Reset() { c.count = 0 }

// Child feeds one child digest and reports whether an internal node boundary
// falls after it.
func (c *InternalChunker) Child(h hash.Hash) bool {
	c.count++
	if HashBoundary(h, c.cfg.InternalBits) || c.count >= c.cfg.MaxFanout {
		c.count = 0
		return true
	}
	return false
}

// WindowChunker decides internal-layer boundaries the Noms/Prolly-Tree way:
// a sliding-window rolling hash over the serialized child entries. This is
// the design difference the paper credits for Noms' slower writes (§5.6.2):
// every child entry is re-hashed through the window rather than reusing the
// already-computed child digest.
type WindowChunker struct {
	cfg    Config
	roller *Roller
	count  int
}

// NewWindowChunker returns a Prolly-style internal chunker for cfg.
func NewWindowChunker(cfg Config) *WindowChunker {
	return &WindowChunker{cfg: cfg, roller: NewRoller(cfg.Window)}
}

// Reset restarts the chunker at a node boundary.
func (c *WindowChunker) Reset() {
	c.roller.Reset()
	c.count = 0
}

// Child feeds one serialized child entry and reports whether a boundary
// falls after it. The boundary probability per entry is tuned to match
// InternalBits so both internal-chunking strategies produce comparable
// fanouts; only the work per entry differs.
func (c *WindowChunker) Child(data []byte) bool {
	c.count++
	// Match probability per byte is scaled so that the per-entry
	// probability approximates 2^-InternalBits: with e-byte entries a
	// per-byte mask of InternalBits + log2(e) bits would be exact; we use
	// the entry-final fingerprint instead, giving one decision per entry.
	var h uint64
	for _, b := range data {
		h = c.roller.Roll(b)
	}
	mask := uint64(1)<<c.cfg.InternalBits - 1
	if h&mask == mask || c.count >= c.cfg.MaxFanout {
		c.Reset()
		return true
	}
	return false
}
