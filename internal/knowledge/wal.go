package knowledge

// Knowledge-base durability: a write-ahead log for folded run-log batches
// plus periodic Turtle snapshots of the whole graph, replayed on startup so
// accumulated telemetry — RunCount, fitted stage costs — survives restarts.
//
// The hook point is foldLocked, the single choke point every ingestion path
// (LogRun, LogRunAsync's flusher, Flush, Import's pre-merge fold) already
// funnels through under foldMu: a batch is framed, appended and fsynced
// *before* it is folded into the graph, so after any Flush() returns the
// accepted observations are both queryable and on disk — the barrier now
// also means durable. Profiles and seeded ontology are not WAL'd; they are
// reconstructed by the owner's seeding on startup and captured by the next
// snapshot, which serializes the entire graph.
//
// On-disk layout under the storage directory:
//
//	graph.ttl — the latest graph snapshot (Turtle, atomically renamed)
//	runs.wal  — run-log batches folded since that snapshot
//
// WAL framing is length + checksum + payload: a 4-byte little-endian
// payload length, a 4-byte IEEE CRC32 of the payload, then the payload. A
// torn tail (crash mid-append) fails the length or checksum and replay
// stops at the last intact record, truncating the tear away. The payload
// encoding is handled by EncodeWALRecord/DecodeWALRecord below; the decoder
// is fuzzed (FuzzDecodeWAL) because restart feeds it whatever bytes the
// filesystem has.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// StorageOptions configures AttachStorage.
type StorageOptions struct {
	// Dir is the storage directory (created if missing).
	Dir string
	// Logf receives storage failures (default: silent). A failed append or
	// snapshot disables persistence rather than failing ingestion: the
	// in-memory knowledge base stays authoritative.
	Logf func(format string, args ...any)
	// snapshotEvery is the number of folded run records between graph
	// snapshots (default 4096; tests lower it). Each snapshot truncates the
	// WAL, bounding both the log's size and the next startup's replay work.
	snapshotEvery int
}

// storage is the attached durability state, reached only under foldMu.
type storage struct {
	dir           string
	wal           *os.File
	walRecords    int // run records appended since the last snapshot
	snapshotEvery int
	logf          func(format string, args ...any)
}

// Storage file names.
const (
	snapshotFile = "graph.ttl"
	walFile      = "runs.wal"
)

// AttachStorage makes the knowledge base durable: the snapshot in dir (if
// any) is imported, the WAL is replayed on top of it — tolerating a torn
// tail — and a fresh snapshot compacts the two before appends resume. Call
// it once, after seeding and before concurrent use; from then on every fold
// appends and fsyncs its batch before touching the graph, so Flush() is an
// on-disk barrier. Import's run-name collision handling makes re-importing
// a snapshot into a freshly seeded base union cleanly: seed triples already
// present merge as no-ops and RunCount is recounted from the graph.
func (b *Base) AttachStorage(o StorageOptions) error {
	if o.Dir == "" {
		return errors.New("knowledge: storage needs a directory")
	}
	if o.snapshotEvery <= 0 {
		o.snapshotEvery = 4096
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return fmt.Errorf("knowledge: %w", err)
	}
	snapPath := filepath.Join(o.Dir, snapshotFile)
	if f, err := os.Open(snapPath); err == nil {
		err = b.Import(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("knowledge: replaying snapshot: %w", err)
		}
	}
	walPath := filepath.Join(o.Dir, walFile)
	replayed, err := b.replayWAL(walPath)
	if err != nil {
		return err
	}
	d := &storage{dir: o.Dir, snapshotEvery: o.snapshotEvery, logf: o.Logf}
	// Compact on attach: fold the replayed WAL into a fresh snapshot so the
	// log never grows across restarts and the next boot replays only what
	// this run appends.
	if replayed > 0 {
		if err := b.writeSnapshot(d); err != nil {
			return err
		}
		if err := os.Truncate(walPath, 0); err != nil {
			return fmt.Errorf("knowledge: %w", err)
		}
	}
	wal, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("knowledge: %w", err)
	}
	d.wal = wal
	b.foldMu.Lock()
	b.durable = d
	b.foldMu.Unlock()
	return nil
}

// replayWAL folds every intact record of the WAL at path into the graph and
// truncates any torn tail, returning the number of run records replayed.
// Called before b.durable is set, so the folds do not re-append.
func (b *Base) replayWAL(path string) (int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("knowledge: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var good int64
	replayed := 0
	for {
		batch, n, err := readWALRecord(br)
		if err != nil {
			break // torn or corrupt tail: keep what replayed intact
		}
		good += n
		b.foldMu.Lock()
		b.foldLocked(batch)
		b.foldMu.Unlock()
		replayed += len(batch)
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > good {
		if err := os.Truncate(path, good); err != nil {
			return replayed, fmt.Errorf("knowledge: truncating torn wal: %w", err)
		}
	}
	return replayed, nil
}

// appendBatch frames, writes and fsyncs one batch. Called under foldMu.
func (d *storage) appendBatch(batch []RunLog) error {
	payload := EncodeWALRecord(batch)
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	if _, err := d.wal.Write(frame); err != nil {
		return err
	}
	if err := d.wal.Sync(); err != nil {
		return err
	}
	d.walRecords += len(batch)
	return nil
}

// writeSnapshot serializes the graph to graph.ttl through a temp file +
// atomic rename. Called under foldMu (never under b.mu), with pending
// already folded — so the direct RLock'd encode below sees complete
// telemetry without calling the Flush barrier it is executing under.
func (b *Base) writeSnapshot(d *storage) error {
	tmp, err := os.CreateTemp(d.dir, "graph-*.tmp")
	if err != nil {
		return fmt.Errorf("knowledge: %w", err)
	}
	b.mu.RLock()
	err = b.graph.Encode(tmp)
	b.mu.RUnlock()
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("knowledge: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(d.dir, snapshotFile)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("knowledge: %w", err)
	}
	return nil
}

// compact writes a fresh snapshot and truncates the open WAL, whose
// contents the snapshot now subsumes. Called under foldMu.
func (b *Base) compact(d *storage) error {
	if err := b.writeSnapshot(d); err != nil {
		return err
	}
	// The handle is O_APPEND: writes after a truncate land at the new end,
	// no seek needed.
	if err := d.wal.Truncate(0); err != nil {
		return fmt.Errorf("knowledge: %w", err)
	}
	d.walRecords = 0
	return nil
}

// maybeSnapshot compacts WAL into snapshot once enough records accumulated.
// Called under foldMu after a fold.
func (b *Base) maybeSnapshot(d *storage) error {
	if d.walRecords < d.snapshotEvery {
		return nil
	}
	return b.compact(d)
}

// disableStorage logs a persistence failure, closes the WAL and detaches
// durability; the in-memory base stays authoritative and ingestion never
// fails on a storage error. Called under foldMu with b.durable non-nil.
func (b *Base) disableStorage(what string, err error) {
	d := b.durable
	d.logf("knowledge: %s failed, disabling persistence: %v", what, err)
	_ = d.wal.Close()
	b.durable = nil
}

// CloseStorage detaches durability, closing the WAL handle. The in-memory
// base keeps working; a final Flush before calling this makes everything
// accepted durable.
func (b *Base) CloseStorage() {
	b.foldMu.Lock()
	defer b.foldMu.Unlock()
	if b.durable != nil {
		_ = b.durable.wal.Close()
		b.durable = nil
	}
}

// ---------------------------------------------------------------------------
// WAL record codec
// ---------------------------------------------------------------------------

// maxWALBatch bounds a decoded batch, far above ingestMaxBuffer (the
// largest batch a fold can produce) so a corrupt count cannot drive a huge
// allocation.
const maxWALBatch = 1 << 20

// EncodeWALRecord encodes one folded batch as a WAL record payload: a
// uvarint count, then per observation the app name (uvarint length +
// bytes), the stage (zigzag varint), the thread count (uvarint) and the
// input size and elapsed time as little-endian IEEE-754 bits.
func EncodeWALRecord(batch []RunLog) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(batch)))
	for _, l := range batch {
		buf = binary.AppendUvarint(buf, uint64(len(l.App)))
		buf = append(buf, l.App...)
		buf = binary.AppendVarint(buf, int64(l.Stage))
		buf = binary.AppendUvarint(buf, uint64(l.Threads))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(l.InputSize))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(l.ETime))
	}
	return buf
}

// errBadWALRecord reports a payload that does not decode as a WAL record.
var errBadWALRecord = errors.New("knowledge: corrupt wal record")

// DecodeWALRecord decodes a WAL record payload produced by EncodeWALRecord.
// It rejects trailing garbage, unbounded counts and oversized fields, and
// every decoded observation must pass the same validation ingestion
// applies — replay can never resurrect an observation LogRun would refuse.
func DecodeWALRecord(payload []byte) ([]RunLog, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 || count > maxWALBatch {
		return nil, errBadWALRecord
	}
	payload = payload[n:]
	batch := make([]RunLog, 0, min(count, 4096))
	for i := uint64(0); i < count; i++ {
		var l RunLog
		nameLen, n := binary.Uvarint(payload)
		if n <= 0 || nameLen > uint64(len(payload[n:])) {
			return nil, errBadWALRecord
		}
		payload = payload[n:]
		l.App = string(payload[:nameLen])
		payload = payload[nameLen:]
		stage, n := binary.Varint(payload)
		if n <= 0 || stage < math.MinInt32 || stage > math.MaxInt32 {
			return nil, errBadWALRecord
		}
		l.Stage = int(stage)
		payload = payload[n:]
		threads, n := binary.Uvarint(payload)
		if n <= 0 || threads > math.MaxInt32 {
			return nil, errBadWALRecord
		}
		l.Threads = int(threads)
		payload = payload[n:]
		if len(payload) < 16 {
			return nil, errBadWALRecord
		}
		l.InputSize = math.Float64frombits(binary.LittleEndian.Uint64(payload[0:8]))
		l.ETime = math.Float64frombits(binary.LittleEndian.Uint64(payload[8:16]))
		payload = payload[16:]
		if err := validateRun(l); err != nil {
			return nil, err
		}
		batch = append(batch, l)
	}
	if len(payload) != 0 {
		return nil, errBadWALRecord
	}
	return batch, nil
}

// maxWALPayload bounds one framed record; a length word past it is treated
// as a torn tail. Generous against real batches (ingestMaxBuffer records of
// modest app names fit well under it).
const maxWALPayload = 64 << 20

// readWALRecord reads one framed record from the WAL stream, returning the
// decoded batch and the frame's full byte length.
func readWALRecord(r io.Reader) ([]RunLog, int64, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, 0, err
	}
	length := binary.LittleEndian.Uint32(head[0:4])
	if length > maxWALPayload {
		return nil, 0, errBadWALRecord
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(head[4:8]) {
		return nil, 0, errBadWALRecord
	}
	batch, err := DecodeWALRecord(payload)
	if err != nil {
		return nil, 0, err
	}
	return batch, int64(8 + length), nil
}
