package capture

import (
	"reflect"
	"testing"
	"time"

	"lawgate/internal/legal"
	"lawgate/internal/netsim"
)

// observeN feeds a device n packets straight through Observe, alternating
// direction, each with its own size, time and payload, and returns the
// flat log the device should hold.
func observeN(d *Device, n int) []Record {
	var want []Record
	for i := 0; i < n; i++ {
		dir := netsim.DirInbound
		if i%2 == 1 {
			dir = netsim.DirOutbound
		}
		pkt := &netsim.Packet{
			Header:    netsim.Header{Src: "suspect", Dst: "server", Flow: "f", Proto: netsim.ProtoTCP, SizeBytes: 40 + i},
			Payload:   []byte{byte(i), byte(i >> 8)},
			Encrypted: i%3 == 0,
		}
		at := time.Duration(i) * time.Millisecond
		d.Observe(dir, at, pkt)
		rec := Record{At: at, Dir: dir, Header: pkt.Header, Encrypted: pkt.Encrypted}
		if d.Kind() == FullWiretap {
			rec.Payload = []byte{byte(i), byte(i >> 8)}
		}
		want = append(want, rec)
	}
	return want
}

// TestLogChunkBoundaries fills a device's log across more than two
// chunks and checks every reader sees the flat log: Records in order,
// Counts and Acquired totals.
func TestLogChunkBoundaries(t *testing.T) {
	for _, kind := range []DeviceKind{RateMeter, FullWiretap} {
		d, err := New(kind, govISPPlacement(), legal.ProcessWiretapOrder)
		if err != nil {
			t.Fatal(err)
		}
		n := 2*logChunk + 37
		want := observeN(d, n)
		if len(d.log) != 3 {
			t.Fatalf("%v: %d records in %d chunks, want 3", kind, n, len(d.log))
		}
		if got := d.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: Records differs from the flat log", kind)
		}
		bin, horizon := 10*time.Millisecond, time.Duration(n)*time.Millisecond
		wantCounts := make([]int, horizon/bin)
		var wantBytes int64
		for _, r := range want {
			if i := int(r.At / bin); i < len(wantCounts) {
				wantCounts[i]++ // the records past the horizon are left out
			}
			wantBytes += int64(r.Header.SizeBytes)
		}
		if got := d.Counts(bin, horizon); !reflect.DeepEqual(got, wantCounts) {
			t.Errorf("%v: Counts = %v, want %v", kind, got, wantCounts)
		}
		if a := d.Acquired(); a.Records != n || a.Bytes != wantBytes {
			t.Errorf("%v: Acquired = %+v, want %d records, %d bytes", kind, a, n, wantBytes)
		}
	}
}

// TestLogCopiesIndependentAcrossChunks writes through the payloads
// Records returns on both sides of a chunk boundary: the device's log
// and a second Records call must not see it.
func TestLogCopiesIndependentAcrossChunks(t *testing.T) {
	d, err := New(FullWiretap, govISPPlacement(), legal.ProcessWiretapOrder)
	if err != nil {
		t.Fatal(err)
	}
	want := observeN(d, logChunk+2)
	first := d.Records()
	for _, i := range []int{logChunk - 1, logChunk, logChunk + 1} {
		first[i].Payload[0] ^= 0xFF
	}
	if got := d.Records(); !reflect.DeepEqual(got, want) {
		t.Error("writing a returned payload reached the device's log")
	}
}

// TestObserveWithinChunkAllocsNothing pins an observation that lands in
// a chunk with room to 0 allocations.
func TestObserveWithinChunkAllocsNothing(t *testing.T) {
	d, err := New(RateMeter, govISPPlacement(), legal.ProcessCourtOrder)
	if err != nil {
		t.Fatal(err)
	}
	pkt := &netsim.Packet{Header: netsim.Header{Src: "suspect", Dst: "server", SizeBytes: 440}}
	d.Observe(netsim.DirInbound, 0, pkt) // open the first chunk
	allocs := testing.AllocsPerRun(100, func() {
		d.Observe(netsim.DirInbound, time.Millisecond, pkt)
	})
	if d.n != 102 || len(d.log) != 1 {
		t.Fatalf("log holds %d records in %d chunks, want 102 in 1", d.n, len(d.log))
	}
	if allocs != 0 {
		t.Errorf("Observe into a non-full chunk allocs/op = %v, want 0", allocs)
	}
}
