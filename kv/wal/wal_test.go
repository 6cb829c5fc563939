package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestFrameRoundTrip encodes every record kind through the frame layer and
// decodes it back.
func TestFrameRoundTrip(t *testing.T) {
	cases := []Record{
		{Kind: KindPut, Seq: 1, Expiry: 0, Key: []byte("k"), Val: []byte("v")},
		{Kind: KindPut, Seq: 1 << 40, Expiry: 1 << 62, Key: bytes.Repeat([]byte("K"), 256), Val: bytes.Repeat([]byte("V"), 4096)},
		{Kind: KindPut, Seq: 7, Key: []byte("empty-value"), Val: []byte{}},
		{Kind: KindDelete, Seq: 9, Key: []byte("gone")},
		{Kind: KindSnapHeader, Barrier: 12345, Seg: 3},
		{Kind: KindSnapFooter, Count: 99},
	}
	var buf []byte
	for _, rec := range cases {
		buf = appendFrame(buf, rec)
	}
	off := 0
	for i, want := range cases {
		got, n, err := decodeFrame(buf[off:])
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Kind != want.Kind || got.Seq != want.Seq || got.Expiry != want.Expiry ||
			got.Barrier != want.Barrier || got.Seg != want.Seg || got.Count != want.Count ||
			!bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Val, want.Val) {
			t.Fatalf("case %d: round trip mismatch: got %+v want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

// TestDecodeRejects pins the failure classification: truncation is torn,
// bit-flips are corruption, and both are errors.
func TestDecodeRejects(t *testing.T) {
	frame := appendFrame(nil, Record{Kind: KindPut, Seq: 5, Key: []byte("key"), Val: []byte("value")})
	for cut := 0; cut < len(frame); cut++ {
		_, _, err := decodeFrame(frame[:cut])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", cut, len(frame))
		}
	}
	// Every single-byte flip must be rejected (length flips either overrun —
	// torn — or reframe bytes whose CRC cannot match).
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, _, err := decodeFrame(bad); err == nil {
			t.Fatalf("flip at byte %d decoded successfully", i)
		}
	}
}

func memLog(t *testing.T, dir string, opt Options) (*MemFS, *Log) {
	t.Helper()
	mfs := NewMemFS()
	opt.FS = mfs
	l, err := OpenLog(dir, 0, opt)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	return mfs, l
}

// recoverAll runs Recover and collects the applied records.
func recoverAll(t *testing.T, fsys FS, dir string) ([]Record, *Result) {
	t.Helper()
	var recs []Record
	res, err := Recover(fsys, dir, func(rec Record, src Source) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return recs, res
}

// TestGroupCommit hammers one log from many goroutines (run under -race) and
// checks every acknowledged append is durably recoverable, in a batch count
// no larger than the append count.
func TestGroupCommit(t *testing.T) {
	const writers, perWriter = 8, 50
	mfs, l := memLog(t, "d", Options{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := l.AppendPut(uint64(w*perWriter+i+1), 0, []byte(key), []byte("v")); err != nil {
					t.Errorf("append %s: %v", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := l.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*perWriter)
	}
	if st.Batches > st.Appends || st.Batches == 0 {
		t.Fatalf("batches = %d outside (0, %d]", st.Batches, st.Appends)
	}
	mfs.Crash() // every acknowledged append was fsynced, so nothing is lost
	recs, res := recoverAll(t, mfs, "d")
	if len(recs) != writers*perWriter {
		t.Fatalf("recovered %d records, want %d", len(recs), writers*perWriter)
	}
	if res.TruncatedBytes != 0 {
		t.Fatalf("unexpected truncation: %+v", res)
	}
}

// TestRotateAndPrune rotates across several segments, snapshots nothing, and
// checks recovery stitches the segments in order; pruning below the oldest
// kept segment then fails recovery (gap against base 0 with no snapshot).
func TestRotateAndPrune(t *testing.T) {
	mfs, l := memLog(t, "d", Options{})
	var want []string
	for seg := 0; seg < 3; seg++ {
		for i := 0; i < 4; i++ {
			key := fmt.Sprintf("s%d-k%d", seg, i)
			want = append(want, key)
			if err := l.AppendPut(uint64(len(want)), 0, []byte(key), []byte("v")); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if seg < 2 {
			if _, err := l.Rotate(); err != nil {
				t.Fatalf("rotate: %v", err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	recs, res := recoverAll(t, mfs, "d")
	if res.Segments != 3 || res.NextSeg != 2 {
		t.Fatalf("segments=%d nextSeg=%d, want 3/2", res.Segments, res.NextSeg)
	}
	for i, rec := range recs {
		if string(rec.Key) != want[i] {
			t.Fatalf("record %d = %q, want %q (segment order broken)", i, rec.Key, want[i])
		}
	}
	// Remove the first segment: with no snapshot covering it, the history has
	// a hole and recovery must refuse.
	if err := mfs.Remove(join("d", segName(0))); err != nil {
		t.Fatalf("remove: %v", err)
	}
	_, err := Recover(mfs, "d", func(Record, Source) error { return nil })
	if !errors.Is(err, ErrRecovery) {
		t.Fatalf("recovery after pruned history: %v, want ErrRecovery", err)
	}
}

// TestTornTailEveryPrefix is the torn-write exhaustive check: for EVERY byte
// prefix of a valid single-segment log, recovery must succeed, recover
// exactly the records whose frames fit the prefix completely, and truncate
// the rest.
func TestTornTailEveryPrefix(t *testing.T) {
	mfs, l := memLog(t, "d", Options{})
	const n = 20
	var boundaries []int // frame end offsets
	for i := 0; i < n; i++ {
		if err := l.AppendPut(uint64(i+1), 0, []byte(fmt.Sprintf("key-%02d", i)), bytes.Repeat([]byte{byte(i)}, i*7)); err != nil {
			t.Fatalf("append: %v", err)
		}
		data, err := mfs.ReadFile(join("d", segName(0)))
		if err != nil {
			t.Fatalf("read segment: %v", err)
		}
		boundaries = append(boundaries, len(data))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	full, err := mfs.ReadFile(join("d", segName(0)))
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	for cut := 0; cut <= len(full); cut++ {
		sub := NewMemFS()
		f, _ := sub.Create(join("d", segName(0)))
		f.Write(full[:cut])
		f.Sync()
		f.Close()
		var got []Record
		res, err := Recover(sub, "d", func(rec Record, src Source) error {
			got = append(got, rec)
			return nil
		})
		if err != nil {
			t.Fatalf("cut=%d: Recover: %v", cut, err)
		}
		wantRecs := 0
		for _, b := range boundaries {
			if b <= cut {
				wantRecs++
			}
		}
		if len(got) != wantRecs {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(got), wantRecs)
		}
		wantTrunc := int64(cut)
		if wantRecs > 0 {
			wantTrunc = int64(cut - boundaries[wantRecs-1])
		}
		if res.TruncatedBytes != wantTrunc {
			t.Fatalf("cut=%d: truncated %d bytes, want %d", cut, res.TruncatedBytes, wantTrunc)
		}
		// The repair is in place: a second recovery sees a clean log.
		got = got[:0]
		res2, err := Recover(sub, "d", func(rec Record, src Source) error { got = append(got, rec); return nil })
		if err != nil || len(got) != wantRecs || res2.TruncatedBytes != 0 {
			t.Fatalf("cut=%d: second recovery not clean: err=%v records=%d truncated=%d",
				cut, err, len(got), res2.TruncatedBytes)
		}
	}
}

// TestMidLogCorruption flips a byte in a NON-final segment: torn-tail
// semantics cannot explain that, so recovery must refuse with a typed error
// naming the file and offset.
func TestMidLogCorruption(t *testing.T) {
	mfs, l := memLog(t, "d", Options{})
	for i := 0; i < 5; i++ {
		if err := l.AppendPut(uint64(i+1), 0, []byte(fmt.Sprintf("k%d", i)), []byte("vvvv")); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if err := l.AppendPut(6, 0, []byte("post"), []byte("v")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := mfs.Corrupt(join("d", segName(0)), 30, 0x08); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	_, err := Recover(mfs, "d", func(Record, Source) error { return nil })
	if !errors.Is(err, ErrRecovery) {
		t.Fatalf("mid-log corruption: %v, want ErrRecovery", err)
	}
	var re *RecoveryError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *RecoveryError", err)
	}
	if re.Path != join("d", segName(0)) || re.Offset < 0 {
		t.Fatalf("error lacks location: %+v", re)
	}
}

// TestFaultFSTornWrite forces an injected short write: the append must report
// failure, and crash-recovery must truncate the torn bytes without error —
// the unacknowledged record simply never happened.
func TestFaultFSTornWrite(t *testing.T) {
	mfs := NewMemFS()
	ffs := NewFaultFS(mfs, FaultPlan{Seed: 42, ShortWriteProb: 1})
	l, err := OpenLog("d", 0, Options{FS: ffs})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	if err := l.AppendPut(1, 0, []byte("doomed"), bytes.Repeat([]byte("x"), 100)); err == nil {
		t.Fatal("append through a torn write succeeded")
	}
	if ffs.ShortWrites == 0 {
		t.Fatal("no short write was injected")
	}
	mfs.Crash()
	recs, res := recoverAll(t, mfs, "d")
	if len(recs) != 0 {
		t.Fatalf("recovered %d records from a log of failures", len(recs))
	}
	_ = res
}

// TestFaultFSLyingSync models a device that acknowledges fsync without
// persisting: the log believes the append is durable, the crash loses it.
// Recovery must still be clean (torn tail at worst) — the loss is detectable
// only by comparing against acknowledged writes, which cmd/kvserver's crash
// test does against the real binary.
func TestFaultFSLyingSync(t *testing.T) {
	mfs := NewMemFS()
	ffs := NewFaultFS(mfs, FaultPlan{Seed: 7, LieSyncProb: 1})
	l, err := OpenLog("d", 0, Options{FS: ffs})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := l.AppendPut(uint64(i+1), 0, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if ffs.LiedSyncs == 0 {
		t.Fatal("no lying fsync was injected")
	}
	mfs.Crash()
	recs, _ := recoverAll(t, mfs, "d")
	if len(recs) != 0 {
		t.Fatalf("recovered %d records that were never really synced", len(recs))
	}
}

// TestCleanMarker round-trips the marker and checks removal.
func TestCleanMarker(t *testing.T) {
	mfs := NewMemFS()
	if _, ok := ReadCleanMarker(mfs, "d"); ok {
		t.Fatal("marker present in empty dir")
	}
	if err := WriteCleanMarker(mfs, "d", 777); err != nil {
		t.Fatalf("write marker: %v", err)
	}
	seq, ok := ReadCleanMarker(mfs, "d")
	if !ok || seq != 777 {
		t.Fatalf("read marker: %d, %v", seq, ok)
	}
	RemoveCleanMarker(mfs, "d")
	if _, ok := ReadCleanMarker(mfs, "d"); ok {
		t.Fatal("marker survived removal")
	}
}

// TestAppendAfterClose pins the ErrClosed contract.
func TestAppendAfterClose(t *testing.T) {
	_, l := memLog(t, "d", Options{})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.AppendPut(1, 0, []byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
