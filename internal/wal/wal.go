// Package wal is the append-only journal of privacy-relevant events behind
// crash-safe ε-accounting: every budget debit is made durable before the
// mechanism draws a single noise value, so a hard kill can only ever
// over-count a tenant's lifetime spend, never under-count it. Snapshots
// (tenants.json, *.stream.json) are the compacted form of the journal; the
// live segments carry whatever happened since.
//
// On-disk layout: a directory of segment files named %016x.wal after the
// first LSN they may contain. Each record is length-prefixed and
// CRC32-framed —
//
//	[4B little-endian payload length][4B CRC32-Castagnoli of payload][payload]
//
// — where the payload is one JSON-encoded Event carrying a monotonically
// increasing LSN. Appends go to a single active segment; when it exceeds the
// segment size it is sealed (fsynced and closed) and a fresh one starts.
// Compact deletes sealed segments wholly covered by a durable snapshot, so
// the journal stays bounded while the accounting it proves stays complete.
//
// Torn tails are expected: a crash mid-append leaves a half-written record at
// the end of the last segment. Replay stops at the last valid record — the
// torn one was never acknowledged, so nothing privacy-relevant is lost. A new
// process never appends to an old segment (it always opens a fresh one), so
// a torn tail can only ever sit at the very end of the journal.
package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// EventKind discriminates journal records.
type EventKind string

// The journaled event kinds. Charges carry the true debited cost (after the
// Lemma 5 resampling doubling), so replay never has to re-derive pricing.
const (
	// EventTenant records a tenant registration (name + lifetime budget), so
	// replay can recreate a tenant whose charges follow in the journal.
	EventTenant EventKind = "tenant"
	// EventCharge records one budget debit: a fit or refit that was admitted.
	// The record is durable before any noise is drawn.
	EventCharge EventKind = "charge"
	// EventIngest records a stream's post-batch ingest sequence (records and
	// batches totals), keeping sequence numbers monotone across crashes even
	// though the folded coefficients themselves live only in snapshots.
	EventIngest EventKind = "ingest"
)

// Event is one journal record. Which fields are meaningful depends on Kind:
// tenant events use Tenant+Total; charge events use Tenant, Op ("fit" or
// "refit"), Ref (the dataset or stream the release was computed from) and
// Epsilon (the debited cost); ingest events use Ref (the stream), Seq and
// Batches (post-batch totals).
type Event struct {
	LSN     uint64    `json:"lsn"`
	Kind    EventKind `json:"kind"`
	Tenant  string    `json:"tenant,omitempty"`
	Total   float64   `json:"total,omitempty"`
	Op      string    `json:"op,omitempty"`
	Ref     string    `json:"ref,omitempty"`
	Epsilon float64   `json:"epsilon,omitempty"`
	Seq     uint64    `json:"seq,omitempty"`
	Batches uint64    `json:"batches,omitempty"`
}

// Charge operations.
const (
	OpFit   = "fit"
	OpRefit = "refit"
)

const (
	segmentSuffix = ".wal"
	headerSize    = 8       // 4B length + 4B CRC
	maxRecordSize = 1 << 20 // larger claimed lengths are treated as corruption
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options sizes a Log.
type Options struct {
	// Fsync syncs the active segment on every Append, making each commit
	// individually durable. Off, commits reach the OS immediately but only
	// hit disk on rotation/Close — a crash can lose the tail (still only
	// under-counting events that were never fsync-acknowledged as durable;
	// the flag trades per-request latency against that window).
	Fsync bool
	// SegmentSize rotates the active segment once it exceeds this many
	// bytes. 0 means 1 MiB.
	SegmentSize int64
	// Floor is the highest LSN any external snapshot claims to cover; the
	// log's next LSN is strictly greater than max(Floor, last journaled
	// LSN), so LSNs are never reused even after full compaction emptied the
	// directory.
	Floor uint64
}

// Log is an append-only journal open for writing. Safe for concurrent use.
type Log struct {
	mu          sync.Mutex
	dir         string
	fsync       bool
	segSize     int64
	active      *os.File
	activeFirst uint64   // first LSN the active segment may contain
	size        int64    // bytes written to the active segment
	lsn         uint64   // last assigned LSN
	sealed      []uint64 // first LSNs of sealed segments, ascending
	appends     uint64   // successful Appends since Open (for metrics)
	broken      error    // sticky: a torn in-flight write poisons the segment
}

func segmentPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x%s", first, segmentSuffix))
}

// truncateTo durably cuts a segment back to its valid prefix.
func truncateTo(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// segmentFirsts lists the directory's segment files as their first LSNs,
// ascending. Files that do not parse as segments are ignored, so a WAL
// directory can share space with snapshot files.
func segmentFirsts(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var firsts []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 16, 64)
		if err != nil {
			continue
		}
		firsts = append(firsts, n)
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	return firsts, nil
}

// scanSegment reads one segment's valid prefix, invoking fn per record.
// last is the LSN of the final valid record seen (carried in from the
// previous segment); valid is the byte length of the segment's valid prefix,
// and intact reports whether the segment was consumed to its very end —
// false means a torn or corrupt record stopped the scan early.
func scanSegment(path string, last uint64, fn func(Event) error) (_ uint64, valid int64, intact bool, _ error) {
	f, err := os.Open(path)
	if err != nil {
		return last, 0, false, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var header [headerSize]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			// io.EOF exactly at a record boundary is the clean end; a short
			// header is a torn tail.
			return last, valid, err == io.EOF, nil
		}
		length := binary.LittleEndian.Uint32(header[:4])
		sum := binary.LittleEndian.Uint32(header[4:])
		if length == 0 || length > maxRecordSize {
			return last, valid, false, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return last, valid, false, nil
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return last, valid, false, nil
		}
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return last, valid, false, nil
		}
		if ev.LSN <= last {
			// LSNs are strictly monotone by construction; a regression means
			// the framing resynchronized onto garbage.
			return last, valid, false, nil
		}
		if fn != nil {
			if err := fn(ev); err != nil {
				return last, valid, false, err
			}
		}
		last = ev.LSN
		valid += headerSize + int64(length)
	}
}

// Replay invokes fn for every valid record in the directory's journal, in
// LSN order, and returns the last valid LSN seen. A missing directory is an
// empty journal. Replay stops — without error — at the first torn or corrupt
// record: a torn tail is the normal residue of a crash mid-append, and
// nothing after a broken frame can be trusted. An error from fn aborts the
// replay and is returned.
func Replay(dir string, fn func(Event) error) (uint64, error) {
	firsts, err := segmentFirsts(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	var last uint64
	for _, first := range firsts {
		var intact bool
		var err error
		last, _, intact, err = scanSegment(segmentPath(dir, first), last, fn)
		if err != nil {
			return last, err
		}
		if !intact {
			break
		}
	}
	return last, nil
}

// Open opens dir (creating it owner-only if needed) for appending. Existing
// segments are scanned to find the last journaled LSN; the next Append gets
// max(that, opts.Floor)+1, written to a freshly created active segment —
// old segments are never appended to, so a torn tail stays where the crash
// left it and is simply superseded.
//
// Open fails loudly if a non-final segment is corrupt: that is bit rot, not
// a torn tail, and appending beyond it would silently orphan the valid
// records that follow the damage.
func Open(dir string, opts Options) (*Log, error) {
	if dir == "" {
		return nil, fmt.Errorf("wal: empty directory")
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	firsts, err := segmentFirsts(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var last uint64
	for i, first := range firsts {
		var intact bool
		var valid int64
		path := segmentPath(dir, first)
		last, valid, intact, err = scanSegment(path, last, nil)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if !intact {
			if i != len(firsts)-1 {
				return nil, fmt.Errorf("wal: segment %s corrupt before end of journal", path)
			}
			// Torn tail of the final segment: the crash residue of an
			// unacknowledged append. Truncate to the valid prefix so the
			// journal replays cleanly past this segment into the fresh
			// active one about to be created after it.
			if err := truncateTo(path, valid); err != nil {
				return nil, err
			}
		}
	}
	l := &Log{
		dir:     dir,
		fsync:   opts.Fsync,
		segSize: opts.SegmentSize,
		lsn:     max(last, opts.Floor),
	}
	if l.segSize <= 0 {
		l.segSize = 1 << 20
	}
	l.activeFirst = l.lsn + 1
	for _, first := range firsts {
		if first != l.activeFirst {
			l.sealed = append(l.sealed, first)
		}
		// A segment already named activeFirst is a leftover that never
		// received a durable record (empty, or torn before its first commit);
		// the O_TRUNC below reclaims it.
	}
	f, err := os.OpenFile(segmentPath(dir, l.activeFirst), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	l.active = f
	return l, nil
}

// Append journals one event, assigning and returning its LSN. With Fsync on,
// the record is on disk when Append returns — the caller may then draw
// noise, answer a request, or take any other unrecoverable step. A failed
// write poisons the log (the segment tail may be torn), and every subsequent
// Append fails too: refusing new work is the only budget-safe response to a
// journal that can no longer prove its debits.
func (l *Log) Append(ev Event) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return 0, fmt.Errorf("wal: log poisoned by earlier write failure: %w", l.broken)
	}
	ev.LSN = l.lsn + 1
	payload, err := json.Marshal(ev)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	frame := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[headerSize:], payload)
	if _, err := l.active.Write(frame); err != nil {
		l.broken = err
		return 0, fmt.Errorf("wal: %w", err)
	}
	if l.fsync {
		if err := l.active.Sync(); err != nil {
			l.broken = err
			return 0, fmt.Errorf("wal: %w", err)
		}
	}
	l.lsn = ev.LSN
	l.appends++
	l.size += int64(len(frame))
	if l.size >= l.segSize {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return ev.LSN, nil
}

// rotateLocked seals the active segment and starts a new one. Called with
// l.mu held.
func (l *Log) rotateLocked() error {
	if err := l.active.Sync(); err != nil { // sealing is always durable
		l.broken = err
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	if err := l.active.Close(); err != nil {
		l.broken = err
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	l.sealed = append(l.sealed, l.activeFirst)
	l.activeFirst = l.lsn + 1
	f, err := os.OpenFile(segmentPath(l.dir, l.activeFirst), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		l.broken = err
		return fmt.Errorf("wal: %w", err)
	}
	if err := SyncDir(l.dir); err != nil {
		l.broken = err
		f.Close()
		return err
	}
	l.active = f
	l.size = 0
	return nil
}

// Compact deletes sealed segments whose every record has LSN ≤ covered —
// i.e. whose events a durable snapshot already folds in. The active segment
// is never touched. It returns how many segments were removed.
//
// The caller must read covered (LastLSN) *before* collecting the snapshot
// state it persists: that ordering means every event the snapshot claims to
// cover had already taken effect, so deleting those events can only lose
// redundancy, never accounting.
func (l *Log) Compact(covered uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.sealed) > 0 {
		next := l.activeFirst // the segment after sealed[0] bounds its LSNs
		if len(l.sealed) > 1 {
			next = l.sealed[1]
		}
		if next-1 > covered {
			break
		}
		if err := os.Remove(segmentPath(l.dir, l.sealed[0])); err != nil {
			return removed, fmt.Errorf("wal: %w", err)
		}
		l.sealed = l.sealed[1:]
		removed++
	}
	if removed > 0 {
		if err := SyncDir(l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// LastLSN returns the most recently assigned LSN (0 if nothing was ever
// journaled).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Segments returns how many segment files the log currently owns, the
// active one included.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}

// Appends returns how many events this process has successfully journaled
// since Open — replayed history is not included, so the counter is a rate
// signal, not an LSN.
func (l *Log) Appends() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends
}

// Close seals the active segment. The log must not be used afterwards. A
// log already poisoned by a write failure closes without error: its active
// segment is unusable (and possibly already closed by a failed rotation),
// every durable record is already on disk, and shutdown should not fail
// over a condition the appends have long since reported.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		l.active.Close()
		return nil
	}
	if err := l.active.Sync(); err != nil {
		l.active.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
