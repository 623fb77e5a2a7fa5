package forkbase

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/query"
	"repro/internal/secondary"
	"repro/internal/store"
	"repro/internal/version"
)

// heighter is implemented by tree indexes that need their height shipped to
// clients for Load.
type heighter interface{ Height() int }

// ErrBudgetExceeded reports that the server aborted a request because the
// client's propagated per-call budget ran out mid-work: finishing would
// have burned CPU for an answer nobody was still waiting for. The wire
// carries it as msgErrDeadline; a retry gets a fresh budget.
var ErrBudgetExceeded = errors.New("forkbase: request budget exceeded")

// ServerOptions configures a Servlet's overload protection. The zero value
// selects the defaults noted per field, so ServerOptions{} is a working
// production-shaped configuration; negative values disable a limit.
type ServerOptions struct {
	// MaxConns bounds concurrently served connections. An accept over the
	// limit is answered with a retryable msgErrBusy and closed — admission
	// control, not queueing. 0 = default 256; negative = unlimited.
	MaxConns int
	// MaxInflight bounds requests executing at once across all
	// connections. A request arriving with every slot taken is shed with
	// msgErrBusy (the connection survives) instead of queueing — under
	// sustained overload queues only convert shed-able load into latency
	// collapse. 0 = default 64; negative = unlimited.
	MaxInflight int
	// IdleTimeout reaps connections that have not sent a request for this
	// long, bounding the cost of clients that dial and stall. 0 = default
	// 2 minutes; negative = never reap.
	IdleTimeout time.Duration
	// MaxFrameBytes caps a single request frame; an oversized frame is a
	// protocol error that drops the connection without buffering the
	// payload. 0 (or anything over the protocol-wide 64 MiB bound) = that
	// bound.
	MaxFrameBytes int
}

// Default ServerOptions limits.
const (
	defaultMaxConns    = 256
	defaultMaxInflight = 64
	defaultIdleTimeout = 2 * time.Minute
)

// errorLinger bounds how long a connection dropped for a protocol error
// keeps discarding what its peer already sent (see lingerClose).
const errorLinger = time.Second

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxConns == 0 {
		o.MaxConns = defaultMaxConns
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = defaultMaxInflight
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = defaultIdleTimeout
	}
	if o.MaxFrameBytes <= 0 || o.MaxFrameBytes > maxMessage {
		o.MaxFrameBytes = maxMessage
	}
	return o
}

// Servlet owns the authoritative index version and serves node fetches and
// write batches. One Servlet matches the paper's single-servlet setup.
//
// A servlet built with NewServlet holds its head in memory only. One built
// with NewServletRepo commits every write batch to a version.Repo branch
// through CommitRetry's compare-and-swap, so batches that race each other
// or a concurrent GC pass are redone server-side against the fresh head;
// if the retry budget is exhausted the client gets an explicit msgErrRetry
// and resends.
type Servlet struct {
	ln   net.Listener
	opts ServerOptions
	// inflight is the request-execution semaphore (nil = unlimited): a
	// request that cannot take a slot without blocking is shed.
	inflight chan struct{}

	mu      sync.Mutex
	idx     core.Index
	conns   map[net.Conn]struct{}
	closing bool // set by the first Close; later Closes only wait

	repo   *version.Repo // nil for a memory-head servlet
	branch string
	tbl    *secondary.Table // nil unless built with NewServletTable

	wg     sync.WaitGroup
	closed chan struct{}
}

// NewServlet returns a servlet whose initial head is idx, held in memory,
// with default overload protection (see ServerOptions).
func NewServlet(idx core.Index) *Servlet {
	return &Servlet{
		idx:    idx,
		opts:   ServerOptions{}.withDefaults(),
		conns:  make(map[net.Conn]struct{}),
		closed: make(chan struct{}),
	}
}

// WithOptions replaces the servlet's overload-protection settings. Call it
// before Start; it returns s for chaining:
//
//	srv := forkbase.NewServlet(idx).WithOptions(forkbase.ServerOptions{MaxInflight: 8})
func (s *Servlet) WithOptions(o ServerOptions) *Servlet {
	s.opts = o.withDefaults()
	return s
}

// NewServletRepo returns a servlet whose head is the given branch of repo:
// every accepted write batch becomes a commit on that branch, made through
// version.CommitRetry's compare-and-swap on the branch head so concurrent
// batches never drop each other. The branch must already exist (seed it
// with an initial commit first).
func NewServletRepo(repo *version.Repo, branch string) (*Servlet, error) {
	idx, err := repo.CheckoutBranch(branch)
	if err != nil {
		return nil, fmt.Errorf("forkbase: servlet branch: %w", err)
	}
	s := NewServlet(idx)
	s.repo, s.branch = repo, branch
	return s, nil
}

// NewServletTable returns a servlet serving a secondary.Table: every
// accepted write batch goes through the table (maintaining its secondary
// indexes) and co-commits all roots on the table's branch, and msgQuery
// requests route through the table's planner. The table must not be
// mutated by anyone else while the servlet runs — the servlet is its
// single writer. A write batch whose co-commit races a concurrent GC
// pass surfaces to the client as msgErrRetry; the resend is idempotent,
// content addressing makes reapplying the same entries converge.
func NewServletTable(tbl *secondary.Table) *Servlet {
	s := NewServlet(tbl.Primary())
	s.tbl = tbl
	return s
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves until Close. It returns the bound address.
func (s *Servlet) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("forkbase: listen: %w", err)
	}
	if s.opts.MaxInflight > 0 {
		s.inflight = make(chan struct{}, s.opts.MaxInflight)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close drains the servlet: it stops accepting, lets every in-flight
// request finish and its response flush, unblocks handlers parked waiting
// for a next request, and returns when all connection handlers have exited.
// Close is idempotent — concurrent or repeated calls all wait for the same
// drain; only the first closes the listener (and reports its error).
func (s *Servlet) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closing = true
	s.mu.Unlock()
	close(s.closed)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	// Expire pending reads so idle handlers notice the shutdown; handlers
	// mid-request are past the read and finish writing their response
	// before they check s.closed again.
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Head returns the servlet's current index version.
func (s *Servlet) Head() core.Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx
}

func (s *Servlet) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				continue
			}
		}
		// Register before handling, under the same lock Close iterates, so
		// a conn is either drained by Close or rejected here — never left
		// parked in a read Close cannot see.
		s.mu.Lock()
		select {
		case <-s.closed:
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		if s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns {
			// Admission control: tell the dialer to back off and retry
			// rather than letting the conn set grow without bound. The
			// write deadline keeps a non-reading peer from parking the
			// accept loop.
			s.mu.Unlock()
			_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
			_ = writeMsg(conn, msgErrBusy, []byte("forkbase: connection limit reached"))
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.handleConn(conn)
		}()
	}
}

func (s *Servlet) handleConn(conn net.Conn) {
	for {
		select {
		case <-s.closed:
			return
		default:
		}
		typ, payload, err := s.serveOne(conn)
		if err != nil {
			select {
			case <-s.closed:
				return // drain interrupted the read; not a protocol error
			default:
			}
			if errors.Is(err, io.EOF) {
				return
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// Idle reap: the connection sat without a request past
				// IdleTimeout. Drop it silently — there is no request to
				// answer and a stalled peer is not reading anyway.
				return
			}
			if errors.Is(err, version.ErrCommitRaced) || errors.Is(err, version.ErrHeadMoved) {
				// Transient by contract: the commit lost to a concurrent GC
				// pass or to other writers beyond the server-side retry
				// budget. Tell the client to resend and keep the connection.
				if writeMsg(conn, msgErrRetry, []byte(err.Error())) != nil {
					return
				}
				continue
			}
			if errors.Is(err, store.ErrNoSpace) {
				// Degraded store: writes are rejected but reads still work.
				// Busy (retryable) rather than permanent, and the connection
				// survives so reads keep flowing.
				if writeMsg(conn, msgErrBusy, []byte(err.Error())) != nil {
					return
				}
				continue
			}
			if errors.Is(err, ErrBudgetExceeded) {
				// The client's propagated budget ran out mid-work; it has
				// already timed out locally. Keep the connection for the
				// retry that carries a fresh budget.
				if writeMsg(conn, msgErrDeadline, []byte(err.Error())) != nil {
					return
				}
				continue
			}
			// Error report, then drop the connection.
			if writeMsg(conn, msgErr, []byte(err.Error())) == nil {
				lingerClose(conn)
			}
			return
		}
		if err := writeMsg(conn, typ, payload); err != nil {
			return
		}
	}
}

// lingerClose half-closes conn after an error reply and discards what the
// peer sends until it closes or errorLinger passes. Closing a socket with
// unread input makes the kernel answer with a reset, which can reach the
// peer before it reads the reply — or fail the rest of the request it is
// still writing (the payload of an oversized frame) — so the peer would
// see "connection reset" instead of the error that explains it.
func lingerClose(conn net.Conn) {
	if hc, ok := conn.(interface{ CloseWrite() error }); ok {
		_ = hc.CloseWrite()
	}
	_ = conn.SetReadDeadline(time.Now().Add(errorLinger))
	_, _ = io.Copy(io.Discard, conn)
}

// serveOne reads one request, applies admission (frame cap, idle deadline,
// budget decode, load shedding), and computes the response.
func (s *Servlet) serveOne(conn net.Conn) (byte, []byte, error) {
	if s.opts.IdleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
	}
	typ, payload, err := readMsgLimit(conn, uint32(s.opts.MaxFrameBytes))
	if err != nil {
		return 0, nil, err
	}
	// A budget envelope fixes the request's deadline the moment it is read:
	// queueing delay downstream counts against the budget, as it should —
	// time spent waiting is time the client no longer has.
	var deadline time.Time
	if typ == msgBudget {
		budget, inner, innerPayload, err := decodeBudget(payload)
		if err != nil {
			return 0, nil, err
		}
		if budget > 0 {
			deadline = time.Now().Add(budget)
		}
		typ, payload = inner, innerPayload
	}
	if !s.acquireSlot() {
		// Every execution slot is busy: shed rather than queue. A queue
		// would only add latency until every admitted request times out —
		// the congestion-collapse mode the overload experiment measures.
		return msgErrBusy, []byte("forkbase: server overloaded, request shed"), nil
	}
	defer s.releaseSlot()
	return s.dispatch(typ, payload, deadline)
}

// acquireSlot takes an execution slot without blocking; false means shed.
func (s *Servlet) acquireSlot() bool {
	if s.inflight == nil {
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Servlet) releaseSlot() {
	if s.inflight != nil {
		<-s.inflight
	}
}

// budgetExpired reports whether a request deadline has passed. The zero
// deadline (no budget propagated) never expires.
func budgetExpired(deadline time.Time) bool {
	return !deadline.IsZero() && time.Now().After(deadline)
}

// budgetCheckRows is how many rows a budget-bounded range scan emits
// between deadline checks: frequent enough to bound overshoot, cheap
// enough to not tax the scan.
const budgetCheckRows = 32

// budgetSource wraps a query source so scans abort once the request's
// propagated budget runs out, instead of burning server CPU on an answer
// the client has already given up on.
type budgetSource struct {
	src      query.Source
	deadline time.Time
}

func (b budgetSource) Get(key []byte) ([]byte, bool, error) {
	if budgetExpired(b.deadline) {
		return nil, false, fmt.Errorf("%w: during point lookup", ErrBudgetExceeded)
	}
	return b.src.Get(key)
}

func (b budgetSource) Range(lo, hi []byte, fn func(key, value []byte) bool) error {
	rows, expired := 0, false
	err := b.src.Range(lo, hi, func(key, value []byte) bool {
		if rows%budgetCheckRows == 0 && budgetExpired(b.deadline) {
			expired = true
			return false
		}
		rows++
		return fn(key, value)
	})
	if err != nil {
		return err
	}
	if expired {
		return fmt.Errorf("%w: after %d rows scanned", ErrBudgetExceeded, rows)
	}
	return nil
}

// dispatch executes one decoded request against the head.
func (s *Servlet) dispatch(typ byte, payload []byte, deadline time.Time) (byte, []byte, error) {
	if budgetExpired(deadline) {
		return 0, nil, fmt.Errorf("%w: expired before dispatch", ErrBudgetExceeded)
	}
	switch typ {
	case msgGetNode:
		h, err := hash.FromBytes(payload)
		if err != nil {
			return 0, nil, err
		}
		s.mu.Lock()
		data, ok := s.idx.Store().Get(h)
		s.mu.Unlock()
		if !ok {
			return msgMissing, nil, nil
		}
		return msgNode, data, nil

	case msgPutBatch:
		entries, err := decodeEntries(payload)
		if err != nil {
			return 0, nil, err
		}
		if s.tbl != nil {
			return s.commitTableBatch(entries, deadline)
		}
		if s.repo != nil {
			return s.commitBatch(entries, deadline)
		}
		s.mu.Lock()
		// Memory-head commits serialize on s.mu; waiting behind other write
		// batches burns the budget, and nothing has been applied yet, so
		// aborting here is clean. This is the abort path the overload
		// experiment's shed-off arm exercises under congestion.
		if budgetExpired(deadline) {
			s.mu.Unlock()
			return 0, nil, fmt.Errorf("%w: before applying write batch", ErrBudgetExceeded)
		}
		next, err := s.idx.PutBatch(entries)
		if err == nil {
			s.idx = next
		}
		root, height := s.idx.RootHash(), s.headHeight()
		s.mu.Unlock()
		if err != nil {
			return 0, nil, err
		}
		return msgRoot, encodeRoot(root, height), nil

	case msgGetRoot:
		s.mu.Lock()
		root, height := s.idx.RootHash(), s.headHeight()
		s.mu.Unlock()
		return msgRoot, encodeRoot(root, height), nil

	case msgQuery:
		q, err := decodeQuery(payload)
		if err != nil {
			return 0, nil, err
		}
		// Snapshot an engine under the lock, execute outside it: the
		// index versions it binds are immutable, so a concurrent write
		// batch advances the head without disturbing this query. With a
		// propagated budget, wrap the source so long scans abort when the
		// client's remaining time runs out.
		s.mu.Lock()
		var eng query.Engine
		if s.tbl != nil {
			var src query.Source = query.IndexSource(s.tbl.Primary())
			if !deadline.IsZero() {
				src = budgetSource{src: src, deadline: deadline}
			}
			eng = query.PlannerFor(src, s.tbl)
		} else {
			var src query.Source = query.IndexSource(s.idx)
			if !deadline.IsZero() {
				src = budgetSource{src: src, deadline: deadline}
			}
			eng = query.NewPlanner(src)
		}
		s.mu.Unlock()
		rows, plan, err := eng.Query(q)
		if err != nil {
			return 0, nil, err
		}
		return msgRows, encodeRows(rows, plan), nil

	default:
		return 0, nil, fmt.Errorf("forkbase: unknown request type %d", typ)
	}
}

// commitBatch applies one write batch as a commit on the servlet's branch.
// CommitRetry commits it as a compare-and-swap on the branch head, redoing
// the batch against a fresh head when another writer or a GC pass got in
// first; if it still exhausts the budget the error propagates and
// handleConn maps it to msgErrRetry. The repo serializes commits itself, so
// s.mu is held only to publish the new head for node serving — and only
// while the won commit is still the branch head, so concurrent batches
// never publish out of commit order. The ack carries the won commit's own
// root, which contains the batch whether or not it is still the head.
func (s *Servlet) commitBatch(entries []core.Entry, deadline time.Time) (byte, []byte, error) {
	var next core.Index
	c, err := version.CommitRetry(s.repo, s.branch,
		fmt.Sprintf("forkbase: put %d entries", len(entries)),
		func(idx core.Index) (core.Index, error) {
			if idx == nil {
				return nil, fmt.Errorf("forkbase: branch %q disappeared", s.branch)
			}
			// Check inside the mutate: CommitRetry may re-run it after a
			// lost commit plus backoff, by which time the budget may be
			// gone. Aborting here leaves no partial state — the commit that
			// would publish the work never happens.
			if budgetExpired(deadline) {
				return nil, fmt.Errorf("%w: before applying write batch", ErrBudgetExceeded)
			}
			n, err := idx.PutBatch(entries)
			if err != nil {
				return nil, err
			}
			next = n
			return n, nil
		})
	if err != nil {
		return 0, nil, err
	}
	s.mu.Lock()
	if head, ok := s.repo.Head(s.branch); ok && head.ID == c.ID {
		s.idx = next
	}
	s.mu.Unlock()
	return msgRoot, encodeRoot(c.Root, c.Height), nil
}

// commitTableBatch applies one write batch through the secondary.Table:
// the table maintains every secondary, then co-commits all roots. The
// table's mutation methods are not concurrency-safe, so the whole apply
// runs under s.mu. A raced co-commit (ErrCommitRaced) leaves the table
// state coherent and propagates for handleConn to map to msgErrRetry.
func (s *Servlet) commitTableBatch(entries []core.Entry, deadline time.Time) (byte, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Check after taking s.mu: waiting behind another table batch burns the
	// budget, and the table has not been touched yet, so aborting is clean.
	if budgetExpired(deadline) {
		return 0, nil, fmt.Errorf("%w: before applying table batch", ErrBudgetExceeded)
	}
	if err := s.tbl.PutBatch(entries); err != nil {
		return 0, nil, err
	}
	if _, err := s.tbl.Commit(fmt.Sprintf("forkbase: put %d entries", len(entries))); err != nil {
		return 0, nil, err
	}
	s.idx = s.tbl.Primary()
	return msgRoot, encodeRoot(s.idx.RootHash(), s.headHeight()), nil
}

// headHeight reports the head's tree height when it exposes one. Caller
// holds s.mu.
func (s *Servlet) headHeight() int {
	if h, ok := s.idx.(heighter); ok {
		return h.Height()
	}
	return 0
}
