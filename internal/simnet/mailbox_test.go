package simnet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMailboxFIFOPerSourceTag drives the indexed mailbox directly: several
// producer goroutines deliver interleaved streams on distinct (src, tag)
// pairs while a consumer takes them in an adversarial order, and every stream
// must come out in FIFO order regardless of scheduling.
func TestMailboxFIFOPerSourceTag(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(8, &cancelled, newRowArena(8))
	const (
		sources  = 4
		tags     = 3
		perQueue = 50
	)
	var wg sync.WaitGroup
	for src := 0; src < sources; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			// Interleave the tags so deliveries from one source alternate
			// between queues.
			for seq := 0; seq < perQueue; seq++ {
				for tag := 0; tag < tags; tag++ {
					m := msgPool.Get().(*message)
					*m = message{src: src, tag: tag, payload: seq}
					mb.deliver(m)
				}
			}
		}(src)
	}
	// Consume queue by queue, in reverse creation order, concurrently with the
	// producers; take must block until the next FIFO element exists.
	for src := sources - 1; src >= 0; src-- {
		for tag := tags - 1; tag >= 0; tag-- {
			for seq := 0; seq < perQueue; seq++ {
				m := mb.take(src, tag)
				if m.src != src || m.tag != tag {
					t.Fatalf("take(%d,%d) returned message from (%d,%d)", src, tag, m.src, m.tag)
				}
				if m.payload != seq {
					t.Fatalf("queue (%d,%d): got seq %v, want %d (FIFO violated)", src, tag, m.payload, seq)
				}
				releaseMessage(m)
			}
		}
	}
	wg.Wait()
}

// TestPoolReuseAllToAll stresses the message and request pools: repeated
// all-to-all rounds where every payload is unique, so any premature recycling
// (a message or request handed out while still referenced) shows up as a
// wrong payload — and as a race under -race.
func TestPoolReuseAllToAll(t *testing.T) {
	const rounds = 20
	m := defaultFake(8)
	_, err := Run(m, func(p *Proc) error {
		n := p.Size()
		for round := 0; round < rounds; round++ {
			reqs := make([]*Request, 0, n-1)
			for d := 1; d < n; d++ {
				reqs = append(reqs, p.Irecv((p.Rank()-d+n)%n, round))
			}
			for d := 1; d < n; d++ {
				dst := (p.Rank() + d) % n
				p.Post(dst, round, 8, [2]int{p.Rank(), round})
			}
			for i, r := range reqs {
				src := (p.Rank() - (i + 1) + n) % n
				got, ok := p.Wait(r).([2]int)
				if !ok || got != [2]int{src, round} {
					return fmt.Errorf("rank %d round %d: payload %v, want [%d %d]", p.Rank(), round, got, src, round)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRequestRecycledAfterWait pins the new Request lifetime contract: Wait
// recycles the request, so waiting twice must panic loudly instead of
// corrupting the freelist.
func TestRequestRecycledAfterWait(t *testing.T) {
	m := defaultFake(2)
	_, err := Run(m, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.Post(1, 0, 0, nil)
		case 1:
			r := p.Irecv(0, 0)
			p.Wait(r)
			panicked := func() (panicked bool) {
				defer func() { panicked = recover() != nil }()
				p.Wait(r)
				return false
			}()
			if !panicked {
				return errors.New("second Wait on a recycled request did not panic")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQueueCompactsUnderStandingBacklog pins the memory behaviour of one
// FIFO: a producer that stays permanently ahead of the consumer (the queue
// never fully drains) must not grow the backing slice with every message —
// the consumed prefix is compacted away, keeping the queue O(backlog).
func TestQueueCompactsUnderStandingBacklog(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(8, &cancelled, newRowArena(8))
	const messages = 100000
	mb.deliver(&message{src: 0, tag: 0, payload: -1}) // standing backlog of 1
	for seq := 0; seq < messages; seq++ {
		mb.deliver(&message{src: 0, tag: 0, payload: seq})
		if m := mb.take(0, 0); m == nil {
			t.Fatal("take returned nil")
		}
	}
	q := mb.queue(0, 0)
	if cap(q.msgs) > 256 {
		t.Fatalf("queue retained %d slots for a backlog of 1 message", cap(q.msgs))
	}
}

// TestDeadlineTearsDownGoroutines verifies the ErrDeadline path no longer
// leaks: the watchdog cancels the run, ranks blocked in receives unwind, and
// the goroutine count returns to its pre-run level.
func TestDeadlineTearsDownGoroutines(t *testing.T) {
	m := defaultFake(8)
	before := runtime.NumGoroutine()
	_, err := Run(m, func(p *Proc) error {
		if p.Rank() == 0 {
			return nil // rank 0 finishes; everyone else deadlocks
		}
		p.Recv(0, 99) // never sent
		return nil
	}, Options{AckSends: true, Deadline: 30 * time.Millisecond})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	// The rank goroutines have been woken and unwound by the time Run returns;
	// allow a little slack for the watchdog helper itself to exit.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked after deadline: %d before, %d after", before, got)
	}
}

// TestCancelAbortsLateReceivers verifies the cancel flag is honoured by ranks
// that reach a receive only after the deadline fired (they abort on entry to
// take instead of blocking forever).
func TestCancelAbortsLateReceivers(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(8, &cancelled, newRowArena(8))
	cancelled.Store(true)
	defer func() {
		if _, ok := recover().(cancelPanic); !ok {
			t.Error("take on a cancelled mailbox should panic with cancelPanic")
		}
	}()
	mb.take(0, 0)
}

// TestMailboxFlatToMapMigration drives the tag span across the flat-table
// budget mid-stream: messages enqueued while the mailbox was flat must
// survive the migration to the map index, FIFO order intact, and new tags
// must keep matching afterwards.
func TestMailboxFlatToMapMigration(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(4, &cancelled, newRowArena(4))

	// A clustered tag range first: stays on the flat table.
	for seq := 0; seq < 10; seq++ {
		mb.deliver(&message{src: 1, tag: 5, payload: seq})
	}
	mb.deliver(&message{src: 2, tag: 9, payload: "nine"})
	if mb.queues != nil {
		t.Fatal("clustered tags should stay on the flat table")
	}

	// A far-away tag blows the span budget and migrates everything.
	mb.deliver(&message{src: 0, tag: 5 + maxFlatEntries, payload: "far"})
	if mb.queues == nil {
		t.Fatal("wide tag span should have migrated to the map index")
	}
	if mb.flat != nil {
		t.Fatal("flat table should be released after migration")
	}

	for seq := 0; seq < 10; seq++ {
		if got := mb.take(1, 5).payload; got != seq {
			t.Fatalf("pre-migration FIFO broken: got %v, want %d", got, seq)
		}
	}
	if got := mb.take(2, 9).payload; got != "nine" {
		t.Fatalf("pre-migration message lost: got %v", got)
	}
	if got := mb.take(0, 5+maxFlatEntries).payload; got != "far" {
		t.Fatalf("post-migration message lost: got %v", got)
	}
}

// TestMailboxFlatGrowsBothSides exercises span growth below and above the
// first observed tag (the table re-bases on downward growth).
func TestMailboxFlatGrowsBothSides(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(2, &cancelled, newRowArena(2))
	mb.deliver(&message{src: 0, tag: 100, payload: "mid"})
	mb.deliver(&message{src: 1, tag: 40, payload: "low"})
	mb.deliver(&message{src: 0, tag: 160, payload: "high"})
	if mb.queues != nil {
		t.Fatal("small span should stay flat")
	}
	if got := mb.take(0, 100).payload; got != "mid" {
		t.Fatalf("got %v", got)
	}
	if got := mb.take(1, 40).payload; got != "low" {
		t.Fatalf("got %v", got)
	}
	if got := mb.take(0, 160).payload; got != "high" {
		t.Fatalf("got %v", got)
	}
}

// TestMailboxHugeRankCount pins the review finding that a rank count beyond
// the whole flat budget must fall straight through to the map index instead
// of indexing a nil flat table.
func TestMailboxHugeRankCount(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(maxFlatEntries+1, &cancelled, newRowArena(maxFlatEntries+1))
	mb.deliver(&message{src: 3, tag: 0, payload: "big"})
	if mb.queues == nil {
		t.Fatal("oversized rank count should use the map index")
	}
	if got := mb.take(3, 0).payload; got != "big" {
		t.Fatalf("got %v", got)
	}
}

// TestMailboxHugeTagSpanNoAliasing pins the overflow finding: a tag span so
// wide that span*procs wraps int must migrate to the map, never alias a far
// tag onto an existing flat row.
func TestMailboxHugeTagSpanNoAliasing(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(8, &cancelled, newRowArena(8))
	mb.deliver(&message{src: 0, tag: 0, payload: "near"})
	mb.deliver(&message{src: 0, tag: 1 << 62, payload: "far"})
	if mb.queues == nil {
		t.Fatal("huge tag span should have migrated to the map index")
	}
	if got := mb.take(0, 1<<62).payload; got != "far" {
		t.Fatalf("far tag aliased: got %v, want far", got)
	}
	if got := mb.take(0, 0).payload; got != "near" {
		t.Fatalf("near tag lost: got %v", got)
	}
}

// flatRows counts the allocated rows of a mailbox's flat table.
func flatRows(mb *mailbox) int {
	n := 0
	for _, row := range mb.flat {
		if row != nil {
			n++
		}
	}
	return n
}

// TestMailboxOneTagOneRow pins the lazy rows of the flat table: at P=4096 a
// mailbox that only ever sees one tag holds one row of P queue pointers, not
// the whole span budget.
func TestMailboxOneTagOneRow(t *testing.T) {
	var cancelled atomic.Bool
	const p = 4096
	mb := newMailbox(p, &cancelled, newRowArena(p))
	for src := 0; src < p; src += 97 {
		mb.deliver(&message{src: src, tag: 7, payload: src})
	}
	for src := 0; src < p; src += 97 {
		if got := mb.take(src, 7).payload; got != src {
			t.Fatalf("src %d: got %v", src, got)
		}
	}
	if mb.queues != nil {
		t.Fatal("one tag should stay on the flat table")
	}
	if got := flatRows(mb); got != 1 {
		t.Fatalf("%d rows allocated, want 1", got)
	}
	if got := len(mb.flat[0]); got != p {
		t.Fatalf("row holds %d queue slots, want %d", got, p)
	}
}

// TestMailboxNilRowsMigrateAndCancel leaves unused rows between two tags:
// migration must skip them and keep the pending messages, and cancelAll
// must skip them and still wake a blocked receiver.
func TestMailboxNilRowsMigrateAndCancel(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(4, &cancelled, newRowArena(4))
	mb.deliver(&message{src: 1, tag: 10, payload: "ten"})
	mb.deliver(&message{src: 2, tag: 14, payload: "fourteen"})
	if got := flatRows(mb); got != 2 {
		t.Fatalf("%d rows allocated, want 2", got)
	}
	mb.deliver(&message{src: 3, tag: 10 + maxFlatEntries, payload: "far"})
	if mb.queues == nil || mb.flat != nil {
		t.Fatal("wide tag span should have migrated to the map index")
	}
	for _, want := range []struct {
		src, tag int
		payload  string
	}{{1, 10, "ten"}, {2, 14, "fourteen"}, {3, 10 + maxFlatEntries, "far"}} {
		if got := mb.take(want.src, want.tag).payload; got != want.payload {
			t.Fatalf("take(%d, %d) = %v, want %s", want.src, want.tag, got, want.payload)
		}
	}

	mb = newMailbox(4, &cancelled, newRowArena(4))
	mb.deliver(&message{src: 0, tag: 3, payload: "three"})
	woken := make(chan any, 1)
	go func() {
		defer func() { woken <- recover() }()
		mb.take(1, 6) // the rows of tags 4 and 5 stay nil
	}()
	for {
		mb.mu.Lock()
		waiting := flatRows(mb) == 2 && len(mb.flat[3][1].waiters) == 1
		mb.mu.Unlock()
		if waiting {
			break
		}
		runtime.Gosched()
	}
	cancelled.Store(true)
	mb.cancelAll()
	if r := <-woken; r != (cancelPanic{}) {
		t.Fatalf("blocked receiver recovered %v, want cancelPanic", r)
	}
}
