package knowledge

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func attach(t *testing.T, b *Base, dir string, every int) {
	t.Helper()
	if err := b.AttachStorage(StorageOptions{Dir: dir, Logf: t.Logf, snapshotEvery: every}); err != nil {
		t.Fatal(err)
	}
}

func TestWALRoundTrip(t *testing.T) {
	batch := []RunLog{
		{App: "GATK1", Stage: 0, InputSize: 10, Threads: 1, ETime: 180},
		{App: "GATK2", Stage: 3, InputSize: 0.5, Threads: 16, ETime: 12.25},
	}
	got, err := DecodeWALRecord(EncodeWALRecord(batch))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("decoded %d records, want %d", len(got), len(batch))
	}
	for i := range batch {
		if got[i] != batch[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], batch[i])
		}
	}
	if _, err := DecodeWALRecord([]byte{}); err == nil {
		t.Fatal("empty payload decoded")
	}
	if _, err := DecodeWALRecord(append(EncodeWALRecord(batch), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestStorageSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	b := seededBase()
	attach(t, b, dir, 4096)
	for i := 0; i < 10; i++ {
		if err := b.LogRun(RunLog{App: "GATK1", Stage: 1, InputSize: float64(i + 1), Threads: 1, ETime: float64(10 * (i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.LogRunAsync(RunLog{App: "GATK1", Stage: 1, InputSize: 4, Threads: 4, ETime: 11}); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	want := b.RunCount()
	model, err := b.FitStageModel("GATK1", 1)
	if err != nil {
		t.Fatal(err)
	}
	est, err := b.EstimateStageCost("GATK1", 1, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	b.CloseStorage() // "kill" the process: no final snapshot, WAL only

	b2 := seededBase()
	attach(t, b2, dir, 4096)
	if got := b2.RunCount(); got != want {
		t.Fatalf("RunCount after restart = %d, want %d", got, want)
	}
	model2, err := b2.FitStageModel("GATK1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if model2 != model {
		t.Fatalf("fitted model after restart = %+v, want %+v", model2, model)
	}
	// The cost oracle's accumulators are rebuilt by the replay, in the
	// order the runs were logged: the estimate is the same float.
	if est2, err := b2.EstimateStageCost("GATK1", 1, 2.5); err != nil || est2 != est {
		t.Fatalf("estimate after restart = %+v (%v), want %+v", est2, err, est)
	}
}

func TestStorageReplayFromSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	b := seededBase()
	attach(t, b, dir, 3)     // snapshot every 3 records
	for i := 0; i < 7; i++ { // 2 snapshots + 1 record left in the WAL
		if err := b.LogRun(RunLog{App: "GATK1", Stage: 0, InputSize: float64(1 + i%3), Threads: 1, ETime: 5 + 0.7*float64(i*i)}); err != nil {
			t.Fatal(err)
		}
	}
	est, err := b.EstimateStageCost("GATK1", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.CloseStorage()
	if fi, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil || fi.Size() == 0 {
		t.Fatalf("no snapshot written: %v", err)
	}

	b2 := seededBase()
	attach(t, b2, dir, 3)
	if got := b2.RunCount(); got != 7 {
		t.Fatalf("RunCount = %d, want 7", got)
	}
	// Snapshot rebuild + WAL tail reproduce the oracle's accumulators.
	if est2, err := b2.EstimateStageCost("GATK1", 0, 2); err != nil || est2 != est {
		t.Fatalf("estimate after restart = %+v (%v), want %+v", est2, err, est)
	}
	// Attach compacted the replayed WAL into the snapshot.
	if fi, err := os.Stat(filepath.Join(dir, walFile)); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL not compacted on attach: size=%v err=%v", fi.Size(), err)
	}
}

func TestStorageTolratesTornTail(t *testing.T) {
	dir := t.TempDir()
	b := seededBase()
	attach(t, b, dir, 4096)
	for i := 0; i < 5; i++ {
		if err := b.LogRun(RunLog{App: "GATK1", Stage: 0, InputSize: 1, Threads: 1, ETime: 5}); err != nil {
			t.Fatal(err)
		}
	}
	b.CloseStorage()

	// Tear the tail: chop bytes off the last frame mid-payload.
	walPath := filepath.Join(dir, walFile)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	b2 := seededBase()
	attach(t, b2, dir, 4096)
	if got := b2.RunCount(); got != 4 {
		t.Fatalf("RunCount after torn tail = %d, want 4 (intact records)", got)
	}
	// The base keeps working after the repair.
	if err := b2.LogRun(RunLog{App: "GATK1", Stage: 0, InputSize: 2, Threads: 1, ETime: 6}); err != nil {
		t.Fatal(err)
	}
	b2.CloseStorage()

	b3 := seededBase()
	attach(t, b3, dir, 4096)
	if got := b3.RunCount(); got != 5 {
		t.Fatalf("RunCount after repair+append = %d, want 5", got)
	}
}

func TestStorageSnapshotPreservesProfiles(t *testing.T) {
	dir := t.TempDir()
	b := seededBase()
	if err := b.AddProfile(AppProfile{Name: "Custom1", InputFileSize: 2, Steps: 1, RAM: 2, CPU: 4, ETime: 50}); err != nil {
		t.Fatal(err)
	}
	attach(t, b, dir, 1) // snapshot on every fold
	if err := b.LogRun(RunLog{App: "Custom1", Stage: 0, InputSize: 1, Threads: 1, ETime: 5}); err != nil {
		t.Fatal(err)
	}
	b.CloseStorage()

	// Restart with only the paper seeds: the snapshot restores Custom1.
	b2 := seededBase()
	attach(t, b2, dir, 1)
	ps, err := b2.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range ps {
		if p.Name == "Custom1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Custom1 profile lost across restart; have %d profiles", len(ps))
	}
	if got := b2.RunCount(); got != 1 {
		t.Fatalf("RunCount = %d, want 1", got)
	}
}

func TestStorageImportSnapshotsImmediately(t *testing.T) {
	// An Import while attached must land in the snapshot: the WAL carries
	// only run-log folds.
	src := seededBase()
	if err := src.AddProfile(AppProfile{Name: "Imported1", InputFileSize: 3, Steps: 1, RAM: 2, CPU: 2, ETime: 70}); err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := src.Export(&doc); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	b := seededBase()
	attach(t, b, dir, 4096)
	if err := b.Import(bytes.NewReader(doc.Bytes())); err != nil {
		t.Fatal(err)
	}
	b.CloseStorage()

	b2 := seededBase()
	attach(t, b2, dir, 4096)
	ps, err := b2.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range ps {
		if p.Name == "Imported1" {
			found = true
		}
	}
	if !found {
		t.Fatal("imported profile lost across restart")
	}
}

func FuzzDecodeWAL(f *testing.F) {
	f.Add(EncodeWALRecord(nil))
	f.Add(EncodeWALRecord([]RunLog{{App: "GATK1", Stage: 1, InputSize: 10, Threads: 4, ETime: 30}}))
	f.Add(EncodeWALRecord([]RunLog{
		{App: "a", Threads: 1},
		{App: "bb", Stage: -2, InputSize: 0.125, Threads: 3, ETime: 1e9},
	}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		batch, err := DecodeWALRecord(payload)
		if err != nil {
			return
		}
		// Whatever decodes must pass ingestion validation (replay can never
		// resurrect an observation LogRun would refuse) and re-encode to a
		// stable fixed point. Byte-identity with the raw input is too strong:
		// varints accept non-minimal encodings.
		for _, l := range batch {
			if verr := validateRun(l); verr != nil {
				t.Fatalf("decoded invalid run %+v: %v", l, verr)
			}
		}
		enc := EncodeWALRecord(batch)
		batch2, err := DecodeWALRecord(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if enc2 := EncodeWALRecord(batch2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encode not a fixed point:\n one=%x\n two=%x", enc, enc2)
		}
	})
}
