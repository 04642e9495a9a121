package crowdjoin

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"crowdjoin/internal/core"
)

// The label journal is the session checkpoint layer: an append-only,
// line-oriented record of every crowd answer, written as the answers
// arrive. A new session pointed at the same journal replays the recorded
// answers through the deduction engine instead of re-crowdsourcing them,
// which resumes an interrupted join without paying twice.
//
// Format (text, one record per line):
//
//	crowdjoin-journal v2
//	objects <initialObjects>
//	m <a> <b>
//	n <a> <b>
//	r <k>
//
// where m/n is the matching/non-matching answer and a, b are object ids
// (written a < b; read in either order). The objects line fingerprints the
// initial universe size: resuming against a differently sized dataset is
// rejected. An "r <k>" line (new in v2) records the arrival of k appended
// records in a streaming session: it grows the running universe by k, so
// answers later in the stream may reference the new ids while answers
// before it cannot — the position of each arrival in the stream is part of
// the fingerprint. On open, the session declares its own arrival history
// and the journal's r entries are matched against it positionally; a
// session that appended different batches (or none) is rejected rather
// than replayed against the wrong records. v1 journals (no r entries,
// "crowdjoin-journal v1" header) read unchanged; fresh journals are
// written as v2.
//
// The journal stores ids, not record contents, so resuming against a
// same-sized but edited or reordered dataset is undetectable and on the
// caller — keep one journal per input. The format survives crashes
// mid-append: a trailing line without a newline is ignored on read, and
// the next append voids it first by writing "#\n" — the fragment becomes a
// line ending in '#', which every future read skips. A bare re-termination
// would instead complete the fragment into a parseable line: at best a
// permanent parse error, at worst (a numerically torn entry like "m 12 3"
// from "m 12 34") a fabricated answer replayed as real.

// journalHeader is the first line of every freshly written label journal;
// journalHeaderV1 is the previous format's, still accepted on read.
const (
	journalHeader   = "crowdjoin-journal v2"
	journalHeaderV1 = "crowdjoin-journal v1"
)

// OpenJournalFile opens (creating if necessary) a label journal at path,
// ready for WithJournal: O_CREATE|O_RDWR|O_APPEND, so appends always land
// at the end and a re-opened journal replays from the start. When the call
// creates the file, the parent directory is fsynced before returning —
// without that, a crash right after journal creation can lose the
// directory entry itself, and with it every answer the session goes on to
// record; a job submitted to a join server must survive a crash
// immediately after submission. Appends are flushed by the OS as usual
// (the journal layer confirms each answer only once written; it does not
// fsync per answer).
func OpenJournalFile(path string) (*os.File, error) {
	// O_EXCL first so "did we create it?" is race-free; an existing file is
	// then opened without O_CREATE.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR|os.O_APPEND, 0o644)
	switch {
	case err == nil:
		if serr := syncDir(filepath.Dir(path)); serr != nil {
			f.Close()
			return nil, fmt.Errorf("crowdjoin: syncing journal directory: %w", serr)
		}
		return f, nil
	case os.IsExist(err):
		return os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	default:
		return nil, err
	}
}

// syncDir fsyncs a directory so a newly created entry in it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// pairKey is the canonical (low, high) object-id key of a pair.
type pairKey struct{ a, b int32 }

func keyOf(a, b int32) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// journalState is one session's view of a label journal: the replay map
// read at open and kept for the session's life (every answer the session
// records joins it), plus the append side. All methods are safe for
// concurrent use: a component-sharded session (WithConcurrency > 1)
// consults and appends to the one journal from several shard goroutines.
// Shards own disjoint pairs, so the serialization order of their appends
// never matters for replay.
type journalState struct {
	mu      sync.Mutex
	answers map[pairKey]Label // guarded by mu
	// w is the append side; nil puts the journal in memory-only mode —
	// answers are cached and replayed across Runs of one session but
	// nothing is persisted (streaming sessions without WithJournal use
	// this so a mid-stream Run's answers are never re-bought).
	w io.Writer
	// numObjects is the initial universe size (the objects line); appended
	// arrivals grow the universe beyond it.
	numObjects int
	// pendingArrivals holds session arrivals not yet present in the
	// stream; the next append writes them (in order, before its entry) so
	// answers about appended records always follow the r line that
	// introduced them.
	pendingArrivals []int // guarded by mu
	// arrivals counts the session arrivals this state has accounted for,
	// in the stream or in pendingArrivals; resume queues the later ones.
	arrivals int // guarded by mu
	// needHeader: the stream held no (surviving) lines, so the first
	// append writes the header line. needObjects: no objects fingerprint
	// survived (fresh journal, or the line was torn away), so the first
	// append (re)writes it — the size check self-heals instead of being
	// silently disabled forever. needVoid: the stream ended mid-line
	// (crash during a previous append), so the first append starts with
	// "#\n", turning the fragment into a voided line future reads skip.
	needHeader  bool  // guarded by mu
	needObjects bool  // guarded by mu
	needVoid    bool  // guarded by mu
	werr        error // guarded by mu
	// onError is the Run's cancel hook, called once on the first write
	// failure; resume installs each Run's own.
	onError func() // guarded by mu
	// replayed counts the answers served without asking the crowd in the
	// current Run (resume resets it).
	replayed atomic.Int64
	// pending holds formatted entries not yet written to w; flushing marks
	// that one goroutine is draining it. record formats under mu (so the
	// void/header/objects preamble and entry order are serialized) but
	// writes outside it — group commit: the first recorder becomes the
	// flusher and drains pending to w one batch at a time, while
	// concurrent recorders append their formatted entry and wait on
	// flushed until their bytes are on disk (queued/written track the
	// append and write high-water marks). k shard goroutines' entries
	// ride one batched write instead of k serialized ones, lookups never
	// wait behind a write, and record still only returns once its answer
	// is recorded (or the write failed — no answers are bought
	// unrecorded). Exactly one flusher runs at a time, so the io.Writer
	// itself needs no concurrency safety (writes happen-before each other
	// via mu).
	pending  []byte    // guarded by mu
	spare    []byte    // guarded by mu; retired pending buffer, reused to avoid reallocating
	flushing bool      // guarded by mu
	flushed  sync.Cond // signals written/werr updates; lazily bound to mu
	queued   int64     // guarded by mu; total bytes ever appended to pending
	written  int64     // guarded by mu; total bytes successfully written to w
}

// newMemoryJournal returns a journal in memory-only mode: replay, record,
// and the replay counter work, but nothing is read or persisted.
func newMemoryJournal(initialObjects int) *journalState {
	j := &journalState{answers: make(map[pairKey]Label), numObjects: initialObjects}
	j.flushed.L = &j.mu
	return j
}

// openJournal reads every complete entry of rw and prepares the append
// side. initialObjects is the universe size before any append; arrivals is
// the session's record-arrival history (the size of each appended batch,
// in order; nil for non-streaming sessions). A mismatched objects line, an
// r entry that does not match the session's arrival at the same position
// (or exists at all in a non-streaming session), or an answer referencing
// objects beyond the universe as of its position in the stream, is
// rejected: the journal belongs to a different input. (Same-sized content
// changes are invisible here; see the format comment.)
//
// Lines are walked in place. The answer lines the writer emits take a
// fast path (parseAnswerLine) that allocates nothing; every other line is
// split into fields and parsed in full, so both read exactly the same
// journals.
func openJournal(rw io.ReadWriter, initialObjects int, arrivals []int) (*journalState, error) {
	raw, err := io.ReadAll(rw)
	if err != nil {
		return nil, fmt.Errorf("crowdjoin: reading journal: %w", err)
	}
	j := &journalState{w: rw, numObjects: initialObjects, arrivals: len(arrivals)}
	j.flushed.L = &j.mu
	// A trailing fragment without '\n' is a torn final append: drop it and
	// have the next append void it (see the format comment above).
	if len(raw) > 0 && raw[len(raw)-1] != '\n' {
		j.needVoid = true
		raw = raw[:bytes.LastIndexByte(raw, '\n')+1]
	}
	j.answers = make(map[pairKey]Label, bytes.Count(raw, []byte{'\n'}))
	sawHeader, sawObjects := false, false
	universe := int64(initialObjects) // grows as r entries are consumed
	consumed := 0                     // arrivals matched against r entries
	for len(raw) > 0 {
		i := bytes.IndexByte(raw, '\n')
		line := raw[:i]
		raw = raw[i+1:]
		if len(line) == 0 || line[len(line)-1] == '#' {
			// Voided torn fragments (and blank lines) are not entries.
			continue
		}
		if !sawHeader {
			if string(line) != journalHeader && string(line) != journalHeaderV1 {
				return nil, fmt.Errorf("crowdjoin: journal stream does not start with %q", journalHeader)
			}
			sawHeader = true
			continue
		}
		l, a, b, ok := parseAnswerLine(line)
		if !ok {
			fields := strings.Fields(string(line))
			if len(fields) == 2 && fields[0] == "objects" {
				if fields[1] != strconv.Itoa(initialObjects) {
					return nil, fmt.Errorf("crowdjoin: journal was written for %s objects, this join has %d", fields[1], initialObjects)
				}
				sawObjects = true
				continue
			}
			if len(fields) == 2 && fields[0] == "r" {
				k, err := strconv.ParseInt(fields[1], 10, 32)
				if err != nil || k < 1 {
					return nil, fmt.Errorf("crowdjoin: malformed journal entry %q", line)
				}
				if consumed >= len(arrivals) {
					return nil, fmt.Errorf("crowdjoin: journal records an arrival of %d records this session has not appended", k)
				}
				if int(k) != arrivals[consumed] {
					return nil, fmt.Errorf("crowdjoin: journal arrival %d has %d records, this session appended %d", consumed, k, arrivals[consumed])
				}
				universe += k
				consumed++
				continue
			}
			if len(fields) != 3 || (fields[0] != "m" && fields[0] != "n") {
				return nil, fmt.Errorf("crowdjoin: malformed journal entry %q", line)
			}
			var errA, errB error
			a, errA = strconv.ParseInt(fields[1], 10, 32)
			b, errB = strconv.ParseInt(fields[2], 10, 32)
			if errA != nil || errB != nil {
				return nil, fmt.Errorf("crowdjoin: malformed journal entry %q", line)
			}
			l = NonMatching
			if fields[0] == "m" {
				l = Matching
			}
		}
		if a < 0 || a >= universe || b < 0 || b >= universe || a == b {
			return nil, fmt.Errorf("crowdjoin: journal entry %q outside the %d-object universe", line, universe)
		}
		// Canonicalize: our writer emits a < b, but a hand-edited entry in
		// the other order must still replay (lookup keys are canonical).
		k := keyOf(int32(a), int32(b))
		if prev, ok := j.answers[k]; ok && prev != l {
			// A later entry contradicting an earlier one is corruption, not
			// a correction: replaying the fabricated later answer would
			// silently flip a label. Exact duplicates stay benign.
			return nil, fmt.Errorf("crowdjoin: conflicting journal entries for pair (%d, %d)", k.a, k.b)
		}
		j.answers[k] = l
	}
	if !sawHeader {
		// Empty, or only voided fragments survived: a fresh journal.
		j.needHeader = true
	}
	j.needObjects = !sawObjects
	j.pendingArrivals = append([]int(nil), arrivals[consumed:]...)
	return j, nil
}

// parseAnswerLine parses an answer line in the form the writer emits, "m
// <a> <b>" or "n <a> <b>" with single spaces and plain decimal ids of at
// most nine digits (so no id overflows int32). ok is false for any other
// line, which openJournal then parses field by field.
func parseAnswerLine(line []byte) (l Label, a, b int64, ok bool) {
	if len(line) < 5 || line[1] != ' ' {
		return 0, 0, 0, false
	}
	switch line[0] {
	case 'm':
		l = Matching
	case 'n':
		l = NonMatching
	default:
		return 0, 0, 0, false
	}
	a, rest, ok := leadingID(line[2:])
	if !ok || len(rest) < 2 || rest[0] != ' ' {
		return 0, 0, 0, false
	}
	b, rest, ok = leadingID(rest[1:])
	if !ok || len(rest) != 0 {
		return 0, 0, 0, false
	}
	return l, a, b, true
}

// leadingID parses the run of one to nine decimal digits that starts s.
func leadingID(s []byte) (v int64, rest []byte, ok bool) {
	i := 0
	for i < len(s) && i < 10 && '0' <= s[i] && s[i] <= '9' {
		v = v*10 + int64(s[i]-'0')
		i++
	}
	if i == 0 || i > 9 {
		return 0, nil, false
	}
	return v, s[i:], true
}

// resume readies the state for a Run of its session: the arrivals the
// session appended since the state last saw its history queue behind the
// pending ones (so their r lines still precede the answers they license),
// onError becomes the Run's cancel hook, and the replay counter restarts.
func (j *journalState) resume(arrivals []int, onError func()) {
	j.mu.Lock()
	j.pendingArrivals = append(j.pendingArrivals, arrivals[j.arrivals:]...)
	j.arrivals = len(arrivals)
	j.onError = onError
	j.mu.Unlock()
	j.replayed.Store(0)
}

// noteAnswer writes a fresh crowd answer into the Run's replay table, from
// which the session's slot table takes it after the Run.
func noteAnswer(table []Label, p Pair, l Label) {
	if p.ID >= 0 && p.ID < len(table) && (l == Matching || l == NonMatching) {
		table[p.ID] = l
	}
}

// slotTable is an unweighted streaming session's answers by pair slot (see
// candgen.StreamIndex.Pairs): labels[s] is the answer bought for the pair
// in slot s, Unlabeled if none. Slots are stable across appends, so a Run
// looks up in the journal's map only the slots no earlier Run resolved —
// the pairs the appends since then added — and reads the rest from here.
// The labels hold for one journal state; a replaced state (a file journal
// re-read after a write failure) drops them. Owned by the Run in progress:
// Join.running serializes Runs.
type slotTable struct {
	jrn    *journalState
	labels []Label
}

// gather returns a Run's replay table over jrn, indexed by Pair.ID, for
// the candidate set StreamIndex.Pairs returned as pairs and slots.
func (st *slotTable) gather(jrn *journalState, pairs []Pair, slots []int32) []Label {
	if st.jrn != jrn {
		st.jrn, st.labels = jrn, st.labels[:0]
	}
	resolved := len(st.labels)
	st.labels = append(st.labels, make([]Label, len(slots)-resolved)...)
	table := make([]Label, len(slots))
	jrn.mu.Lock()
	for id, s := range slots {
		if int(s) >= resolved {
			st.labels[s] = jrn.answers[keyOf(pairs[id].A, pairs[id].B)]
		}
		table[id] = st.labels[s]
	}
	jrn.mu.Unlock()
	return table
}

// scatter takes a Run's fresh answers (noteAnswer) back into the slot
// table.
func (st *slotTable) scatter(table []Label, slots []int32) {
	for id, s := range slots {
		st.labels[s] = table[id]
	}
}

// writeErr returns the first append failure, if any. Run reads it after
// the drivers drain; the lock still matters because a failed flusher may
// be setting werr while a last straggler returns.
func (j *journalState) writeErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.werr
}

// record appends one crowd answer. Invalid labels are not journaled (the
// driver rejects them right after); a write failure is remembered and
// reported once via onError so the session can stop buying unrecorded
// answers.
//
// The critical section is narrow: the entry (with any needVoid/header/
// objects preamble) is formatted into the pending buffer under mu, and
// the disk write happens outside it, group-commit style — see the
// pending/flushing/flushed fields. Entries always reach w as whole lines
// in format order, so append atomicity and the preamble-before-entries
// ordering are preserved, and record returns only once its entry is
// written (or the write failed).
func (j *journalState) record(p Pair, l Label) {
	j.mu.Lock()
	if j.werr != nil || (l != Matching && l != NonMatching) {
		j.mu.Unlock()
		return
	}
	k := keyOf(p.A, p.B)
	if _, ok := j.answers[k]; ok {
		j.mu.Unlock()
		return
	}
	j.answers[k] = l
	if j.w == nil {
		// Memory-only mode: the answer is cached for replay, nothing is
		// formatted or written.
		j.mu.Unlock()
		return
	}
	before := len(j.pending)
	if j.needVoid {
		j.pending = append(j.pending, "#\n"...)
		j.needVoid = false
	}
	if j.needHeader {
		j.pending = append(j.pending, journalHeader...)
		j.pending = append(j.pending, '\n')
		j.needHeader = false
	}
	if j.needObjects {
		j.pending = append(j.pending, "objects "...)
		j.pending = strconv.AppendInt(j.pending, int64(j.numObjects), 10)
		j.pending = append(j.pending, '\n')
		j.needObjects = false
	}
	for _, arr := range j.pendingArrivals {
		// Arrivals the stream has not seen yet go out before the entry, so
		// an answer about appended records always follows the r line that
		// introduced them.
		j.pending = append(j.pending, "r "...)
		j.pending = strconv.AppendInt(j.pending, int64(arr), 10)
		j.pending = append(j.pending, '\n')
	}
	j.pendingArrivals = j.pendingArrivals[:0]
	tag := byte('n')
	if l == Matching {
		tag = 'm'
	}
	j.pending = append(j.pending, tag, ' ')
	j.pending = strconv.AppendInt(j.pending, int64(k.a), 10)
	j.pending = append(j.pending, ' ')
	j.pending = strconv.AppendInt(j.pending, int64(k.b), 10)
	j.pending = append(j.pending, '\n')
	j.queued += int64(len(j.pending) - before)
	myEnd := j.queued
	if j.flushing {
		// The active flusher batches this entry into its next write; wait
		// until it is on disk (or the journal broke) before acknowledging
		// the answer.
		for j.written < myEnd && j.werr == nil {
			j.flushed.Wait()
		}
		j.mu.Unlock()
		return
	}
	j.flushing = true
	var werr error
	for len(j.pending) > 0 && werr == nil {
		buf := j.pending
		j.pending = j.spare[:0]
		j.mu.Unlock()
		_, werr = j.w.Write(buf)
		j.mu.Lock()
		j.spare = buf
		if werr == nil {
			j.written += int64(len(buf))
			j.flushed.Broadcast()
		}
	}
	j.flushing = false
	onError := j.onError
	if werr != nil && j.werr == nil {
		j.werr = werr
		j.flushed.Broadcast() // wake waiters from the failed batch
	} else {
		onError = nil
	}
	j.mu.Unlock()
	if onError != nil {
		onError()
	}
}

// knownAnswers is every answer a Run holds before it asks the crowd, the
// one source behind both crowd-surface wrappers.
type knownAnswers struct {
	bands core.TriageBands
	jrn   *journalState
	table []Label // the Run's replay table (nil: none)
}

// lookup returns the answer held for p; machine reports that the bands
// gave it. The bands come first (zero bands answer nothing), then the
// answers bought earlier: the replay table when it holds one at p.ID (see
// slotTable), otherwise the journal. An answer bought earlier counts as a
// replay; the machine's does not, and neither is ever journaled.
func (k *knownAnswers) lookup(p Pair) (l Label, machine, ok bool) {
	if l := k.bands.Classify(p.Likelihood); l != Unlabeled {
		return l, true, true
	}
	if p.ID >= 0 && p.ID < len(k.table) && k.table[p.ID] != Unlabeled {
		l, ok = k.table[p.ID], true
	} else {
		k.jrn.mu.Lock()
		l, ok = k.jrn.answers[keyOf(p.A, p.B)]
		k.jrn.mu.Unlock()
	}
	if ok {
		k.jrn.replayed.Add(1)
	}
	return l, false, ok
}

// journalOracle is the sequential family's crowd wrapper: held answers
// first, then the inner oracle, whose answers are recorded.
type journalOracle struct {
	knownAnswers
	inner Oracle
}

// Label implements Oracle.
func (o *journalOracle) Label(p Pair) Label {
	if l, _, ok := o.lookup(p); ok {
		return l
	}
	l := o.inner.Label(p)
	o.jrn.record(p, l)
	noteAnswer(o.table, p, l)
	return l
}

// heldQueue holds answers for published pairs, in publish order.
type heldQueue struct {
	pairs  []Pair
	labels []Label
	head   int // the next one to serve
}

func (q *heldQueue) len() int { return len(q.pairs) - q.head }

func (q *heldQueue) push(p Pair, l Label) {
	q.pairs, q.labels = append(q.pairs, p), append(q.labels, l)
}

// pop serves the next answer, if any, and resets the queue once it has
// served the last.
func (q *heldQueue) pop() (p Pair, l Label, ok bool) {
	if q.len() == 0 {
		return p, l, false
	}
	p, l = q.pairs[q.head], q.labels[q.head]
	q.head++
	if q.len() == 0 {
		q.compact()
	}
	return p, l, true
}

// compact drops the served entries in place (instead of letting head crawl
// forward forever), so a long session never pins them in the backing
// arrays — the same fix the crowd platform's batching buffer got.
func (q *heldQueue) compact() {
	if q.head > 0 {
		n := copy(q.pairs, q.pairs[q.head:])
		copy(q.labels, q.labels[q.head:])
		q.pairs, q.labels, q.head = q.pairs[:n], q.labels[:n], 0
	}
}

// journalPlatform is the round driver's crowd wrapper: published pairs
// whose answer is held are served from internal queues, without ever
// reaching the inner platform, and every answer the inner platform
// produces is recorded. The machine's answers are served first, then the
// journal's, then the inner platform's — on a fresh run the machine's come
// before the crowd's, so a resumed run takes its answers in the same
// order. Publish counts the replays it finds: the driver serves every held
// answer before it returns, on cancellation by taking what Held reports.
type journalPlatform struct {
	knownAnswers
	inner            Platform
	triaged, replays heldQueue
}

// Publish implements Platform.
func (jp *journalPlatform) Publish(ps []Pair) {
	jp.triaged.compact()
	jp.replays.compact()
	var fwd []Pair
	for _, p := range ps {
		switch l, machine, ok := jp.lookup(p); {
		case machine:
			jp.triaged.push(p, l)
		case ok:
			jp.replays.push(p, l)
		default:
			fwd = append(fwd, p)
		}
	}
	if len(fwd) > 0 {
		jp.inner.Publish(fwd)
	}
}

// NextLabel implements Platform.
func (jp *journalPlatform) NextLabel() (Pair, Label, bool) {
	if p, l, ok := jp.triaged.pop(); ok {
		return p, l, ok
	}
	if p, l, ok := jp.replays.pop(); ok {
		return p, l, ok
	}
	p, l, ok := jp.inner.NextLabel()
	if ok {
		jp.jrn.record(p, l)
		noteAnswer(jp.table, p, l)
	}
	return p, l, ok
}

// Available implements Platform.
func (jp *journalPlatform) Available() int {
	return jp.triaged.len() + jp.replays.len() + jp.inner.Available()
}

// Held implements core.Holder: the held answers, then what the inner
// platform holds.
func (jp *journalPlatform) Held() int {
	n := jp.triaged.len() + jp.replays.len()
	if h, ok := jp.inner.(core.Holder); ok {
		n += h.Held()
	}
	return n
}
