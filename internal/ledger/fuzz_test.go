package ledger

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"
)

// FuzzRecordRoundTrip: every record survives encode → decode
// byte-identically, the decoder never panics on arbitrary bytes, and
// re-encoding a decoded record reproduces the input bytes it consumed.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0), uint16(1), uint32(0), "", "", "")
	f.Add(uint64(3), int64(1330592400000000000), uint16(2), uint32(7),
		"agent-smith", "EV-0001", "seized laptop")
	f.Add(uint64(1<<40), int64(-5), uint16(999), uint32(1<<31),
		"üñïçødé", "subject\x00with\x00nuls", "a longer note\nwith newlines")
	f.Fuzz(func(t *testing.T, seq uint64, at int64, kind uint16, code uint32,
		actor, subject, note string) {
		in := Record{
			Seq: seq, At: at, Kind: Kind(kind), Code: code,
			Actor: actor, Subject: subject, Note: note,
			Prev: sha256.Sum256([]byte(actor)),
		}
		enc := AppendRecordBody(nil, &in)
		out, n, err := DecodeRecordBody(enc)
		if err != nil {
			t.Fatalf("decode of canonical encoding failed: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
		}
		out.Hash = in.Hash
		if out != in {
			t.Fatalf("round trip changed record:\n in: %+v\nout: %+v", in, out)
		}
		if re := AppendRecordBody(nil, &out); !bytes.Equal(re, enc) {
			t.Fatal("re-encoding a decoded record diverged")
		}
		// The chain digest is exactly SHA-256 of the canonical body, for
		// both encoder paths (buffer sealer vs. streaming verifier).
		var s sealer
		d := in.draft()
		if s.seal(in.Seq, &d, &in.Prev) != sha256.Sum256(enc) {
			t.Fatal("sealer disagrees with SHA-256 over AppendRecordBody")
		}
		digest := streamDigest{h: sha256.New()}
		if digest.record(in.Seq, &d, &in.Prev) != sha256.Sum256(enc) {
			t.Fatal("streamDigest disagrees with SHA-256 over AppendRecordBody")
		}
		// Decoding arbitrary prefixes must never panic; errors are fine.
		for cut := 0; cut < len(enc); cut += 1 + len(enc)/8 {
			DecodeRecordBody(enc[:cut])
		}
	})
}

// FuzzLoad: Load must never panic on arbitrary bytes, and anything it
// accepts must re-serialize to an equivalent commitment, unless a
// stored Seq or Prev disagrees with its position: WriteTo refuses
// that ledger with the same TamperError Verify reports.
func FuzzLoad(f *testing.F) {
	var buf bytes.Buffer
	build(3).WriteTo(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte("LGLEDGR1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Load(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := l.WriteTo(&out); err != nil {
			var te *TamperError
			if !errors.As(err, &te) || *te != *l.mislinked {
				t.Fatalf("re-serialize of loaded ledger: %v", err)
			}
			return
		}
		re, err := Load(out.Bytes())
		if err != nil {
			t.Fatalf("re-load: %v", err)
		}
		if re.Len() != l.Len() || re.Head() != l.Head() {
			t.Fatal("load → write → load changed the ledger")
		}
	})
}
