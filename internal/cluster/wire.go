// Package cluster replicates WM-/AWM-Sketch models between wmserve nodes
// without a coordinator or shared disk. Each node periodically exchanges
// model state with its configured peers and merges everything it knows via
// example-count-weighted parameter mixing (core.MixSnapshots) — the
// paper's linear-mergeability property applied across machines instead of
// across cores. State is replicated per origin (one entry per node id),
// which makes merging idempotent and convergent: receiving the same frame
// twice, or the same state along two gossip paths, cannot double-count an
// example. See CLUSTER.md for the topology and convergence discussion.
package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"slices"

	"wmsketch/internal/codec"
	"wmsketch/internal/core"
	"wmsketch/internal/sketch"
	"wmsketch/internal/stream"
	"wmsketch/internal/trace"
)

// Wire format (little-endian). A frame stream is
//
//	magic    uint32 ("WMCF")
//	version  uint32
//	trace id [16]byte (v3: W3C trace id of the round this stream belongs to)
//	span id  [8]byte  (v3: the sending span; all-zero trace/span = untraced)
//	crc32    uint32   (v3: IEEE, over the 32 bytes above)
//
//	frames  until EOF
//
// The trace annotation is how a gossip stream stays causally attributable
// without a per-frame cost: the receiver continues the sender's trace when
// applying the stream, which is what the simulator's causal-lineage gate
// checks end to end. It rides in the header (not a frame) so the fixed
// stream overhead stays constant and the byte-accounting invariant stays
// exact. The header CRC exists for the same reason the per-frame one does:
// magic/version checks cannot see a flipped bit inside the annotation, and
// an apply recorded under a corrupted trace id would be lineage evidence
// pointing at a round that never happened.
//
// Each frame is
//
//	kind    byte
//	length  uvarint (payload bytes)
//	payload length bytes, kind-specific fields
//	crc32   uint32 (IEEE, over the payload)
//
// The per-frame CRC exists because structural validation alone cannot
// catch payload corruption: a bit flip inside a float64 weight is still
// finite, bounded, and perfectly parseable — without the checksum it would
// be ingested into model state at a valid version and gossip onward. With
// it, any corrupted frame fails the stream whole and the round is retried.
//
// Within a payload: origins are length-prefixed UTF-8 strings; counts and
// bucket indices are uvarints; model versions are uvarints (a version IS
// the origin's example count, so it is non-negative and monotonic);
// weights and bucket values are raw float64 bits.
//
// Frame kinds:
//
//	digest: the sender's origin → version map. Carried in pull responses so
//	        the requester can push back what the responder lacks
//	        (push-pull anti-entropy in one round trip).
//	full:   a complete snapshot of one origin's model — heavy list plus the
//	        folded Count-Sketch in its own (hardened) serialization.
//	delta:  only what changed between the receiver's acked version (base)
//	        and the sender's current version: changed buckets as
//	        gap-encoded flat indices with their new values, plus the heavy
//	        list diff (removed keys + upserted entries). Values are
//	        absolute, not additive, so replay is harmless.
const (
	frameMagic  = 0x574d4346 // "WMCF"
	wireVersion = 3          // v2 added per-frame length + CRC32; v3 the header trace annotation
	// streamHeaderSize is the fixed stream prefix: magic, version, the
	// 24-byte trace annotation, and the header CRC.
	streamHeaderSize = 4 + 4 + 16 + 8 + 4
	kindDigest       = byte(1)
	kindFull         = byte(2)
	kindDelta        = byte(3)
	maxOriginLen     = 256
	// maxFrameBytes bounds one frame's declared payload length.
	maxFrameBytes = 1 << 28
	// Per-kind count bounds, each matched to what the data can legitimately
	// hold: a digest has one entry per cluster member, a heavy list is
	// capped by the serialization layer's heap bound (2^24, mirroring
	// core's maxSerializedHeap), and a change list by the sketch bucket
	// bound (2^27, mirroring sketch's maxSerializedBuckets).
	maxDigestEntries = 1 << 16
	maxHeavyEntries  = 1 << 24
	maxChangeEntries = 1 << 27
)

// Frame is one decoded wire frame.
type Frame struct {
	Kind    byte
	Origin  string
	Version int64 // the origin's example count at this state
	Base    int64 // delta: the version the changes apply to
	// Scale is the model's global decay multiplier at this version
	// (model = Scale·CS). Buckets travel raw so deltas stay sparse; the
	// scale is one float per frame.
	Scale float64

	// Full payload.
	CS    *sketch.CountSketch
	Heavy []stream.Weighted

	// Delta payload.
	Changes      []sketch.BucketChange
	HeavyRemoved []uint32
	HeavyUpserts []stream.Weighted

	// Digest payload.
	Digest map[string]int64

	// WireBytes is this frame's full encoded size (kind byte + length
	// prefix + payload + CRC trailer), filled in by WriteFrames and
	// ReadFrames. The per-frame-type byte metrics and the simulator's
	// journal-vs-registry invariant are both built on it: the stream size
	// is always streamHeaderSize (36) + Σ WireBytes.
	WireBytes int64
}

// FullFrame builds a full-snapshot frame for sn.
func FullFrame(sn core.Snapshot) Frame {
	return Frame{Kind: kindFull, Origin: sn.Origin, Version: sn.Steps, Scale: scaleOr1(sn.Scale), CS: sn.CS, Heavy: sn.Heavy}
}

func scaleOr1(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}

// WriteFrames encodes the stream header and frames with no trace
// annotation, returning the bytes written. Each frame's payload is
// length-prefixed and trailed by its CRC32, so receivers can prove
// integrity before decoding a byte of it.
func WriteFrames(w io.Writer, frames []Frame) (int64, error) {
	return WriteFramesTraced(w, trace.SpanContext{}, frames)
}

// WriteFramesTraced is WriteFrames with the sender's span identity stamped
// into the stream header, linking this stream to the gossip round that
// produced it. An invalid (zero) sc writes an untraced header of the same
// size. Each frame is assembled in a reused buffer and written with one
// Write.
func WriteFramesTraced(w io.Writer, sc trace.SpanContext, frames []Frame) (int64, error) {
	var hdr [streamHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], wireVersion)
	if sc.Valid() {
		copy(hdr[8:24], sc.TraceID[:])
		copy(hdr[24:32], sc.SpanID[:])
	}
	binary.LittleEndian.PutUint32(hdr[32:], crc32.ChecksumIEEE(hdr[:32]))
	m, err := w.Write(hdr[:])
	n := int64(m)
	if err != nil {
		return n, err
	}
	var payload, frame []byte
	for i := range frames {
		f := &frames[i]
		if payload, err = appendFramePayload(payload[:0], f); err != nil {
			return n, fmt.Errorf("cluster: frame %d (%q): %w", i, f.Origin, err)
		}
		if len(payload) > maxFrameBytes {
			return n, fmt.Errorf("cluster: frame %d (%q): payload %d exceeds %d bytes",
				i, f.Origin, len(payload), maxFrameBytes)
		}
		frame = append(frame[:0], f.Kind)
		frame = codec.AppendUvarint(frame, uint64(len(payload)))
		frame = append(frame, payload...)
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
		m, err := w.Write(frame)
		n += int64(m)
		if err != nil {
			return n, err
		}
		f.WireBytes = int64(len(frame))
	}
	return n, nil
}

// appendFramePayload appends f's kind-specific fields to dst.
func appendFramePayload(dst []byte, f *Frame) ([]byte, error) {
	switch f.Kind {
	case kindDigest:
		dst = codec.AppendUvarint(dst, uint64(len(f.Digest)))
		// Deterministic order is not required on the wire (receivers build a
		// map), but stable output helps tests and debugging.
		for _, id := range slices.Sorted(maps.Keys(f.Digest)) {
			var err error
			if dst, err = appendOrigin(dst, id); err != nil {
				return dst, err
			}
			dst = codec.AppendUvarint(dst, uint64(f.Digest[id]))
		}
		return dst, nil
	case kindFull:
		dst, err := appendOrigin(dst, f.Origin)
		if err != nil {
			return dst, err
		}
		dst = codec.AppendUvarint(dst, uint64(f.Version))
		dst = codec.AppendF64(dst, scaleOr1(f.Scale))
		dst = appendWeighted(dst, f.Heavy)
		// The sketch's own serialization carries shape, seed, and bucket
		// validation.
		buf := bytes.NewBuffer(dst)
		_, err = f.CS.WriteTo(buf)
		return buf.Bytes(), err
	case kindDelta:
		dst, err := appendOrigin(dst, f.Origin)
		if err != nil {
			return dst, err
		}
		dst = codec.AppendUvarint(dst, uint64(f.Version))
		dst = codec.AppendUvarint(dst, uint64(f.Base))
		dst = codec.AppendF64(dst, scaleOr1(f.Scale))
		dst = codec.AppendUvarint(dst, uint64(len(f.Changes)))
		prev := uint32(0)
		for i, ch := range f.Changes {
			if i > 0 && ch.Index <= prev {
				return dst, fmt.Errorf("changes not strictly ascending at %d", i)
			}
			dst = codec.AppendUvarint(dst, uint64(ch.Index-prev))
			dst = codec.AppendF64(dst, ch.Value)
			prev = ch.Index
		}
		dst = codec.AppendUvarint(dst, uint64(len(f.HeavyRemoved)))
		for _, k := range f.HeavyRemoved {
			dst = codec.AppendUvarint(dst, uint64(k))
		}
		return appendWeighted(dst, f.HeavyUpserts), nil
	default:
		return dst, fmt.Errorf("unknown frame kind %d", f.Kind)
	}
}

// ReadFrames decodes a full frame stream, discarding the header's trace
// annotation. Every frame's CRC is verified before its payload is decoded,
// every count is bounded, and every float checked finite before it can
// reach model state — so a corrupt, truncated, or hostile stream yields an
// error, not an OOM or a poisoned sketch.
func ReadFrames(r io.Reader) ([]Frame, error) {
	frames, _, err := ReadFramesTraced(r)
	return frames, err
}

// ReadFramesTraced is ReadFrames plus the stream's trace annotation. The
// returned SpanContext is the sender's span identity, or the zero value
// for an untraced stream; it needs no validation beyond Valid() because an
// all-zero annotation is exactly the invalid SpanContext.
func ReadFramesTraced(r io.Reader) ([]Frame, trace.SpanContext, error) {
	br := bufio.NewReader(r)
	var hdr [streamHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, trace.SpanContext{}, fmt.Errorf("cluster: truncated stream header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != frameMagic {
		return nil, trace.SpanContext{}, fmt.Errorf("cluster: bad frame magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != wireVersion {
		return nil, trace.SpanContext{}, fmt.Errorf("cluster: unsupported wire version %d", v)
	}
	if got := binary.LittleEndian.Uint32(hdr[32:]); got != crc32.ChecksumIEEE(hdr[:32]) {
		return nil, trace.SpanContext{}, fmt.Errorf("cluster: stream header CRC mismatch")
	}
	var sc trace.SpanContext
	copy(sc.TraceID[:], hdr[8:24])
	copy(sc.SpanID[:], hdr[24:32])
	var frames []Frame
	var payload []byte // reused: decoded frames never alias it
	for {
		kind, err := br.ReadByte()
		if err == io.EOF {
			return frames, sc, nil
		}
		if err != nil {
			return nil, trace.SpanContext{}, err
		}
		if kind != kindDigest && kind != kindFull && kind != kindDelta {
			return nil, trace.SpanContext{}, fmt.Errorf("cluster: frame %d: unknown frame kind %d", len(frames), kind)
		}
		n, err := binary.ReadUvarint(br)
		switch {
		case err != nil:
			err = fmt.Errorf("payload length: %w", err)
		case n > maxFrameBytes:
			err = fmt.Errorf("payload length %d exceeds limit %d", n, maxFrameBytes)
		default:
			payload, err = codec.ReadPayload(br, payload, int(n), 0)
		}
		var f Frame
		if err == nil {
			f, err = decodeFrame(kind, payload)
		}
		if err != nil {
			return nil, trace.SpanContext{}, fmt.Errorf("cluster: frame %d: %w", len(frames), err)
		}
		f.WireBytes = frameWireSize(len(payload))
		frames = append(frames, f)
	}
}

// decodeFrame decodes one CRC-verified payload and requires it to be
// consumed exactly — trailing bytes mark a malformed frame.
func decodeFrame(kind byte, payload []byte) (Frame, error) {
	rd := codec.NewReader(payload)
	f := Frame{Kind: kind}
	var err error
	switch kind {
	case kindDigest:
		f.Digest, err = readDigest(rd)
	case kindFull:
		if err = readHead(rd, &f); err != nil {
			return f, err
		}
		if f.Heavy, err = readList(rd, maxHeavyEntries, readWeighted); err != nil {
			return f, err
		}
		f.CS, err = readSketch(rd)
	case kindDelta:
		if err = readHead(rd, &f); err != nil {
			return f, err
		}
		if f.Changes, err = readChanges(rd); err != nil {
			return f, err
		}
		if f.HeavyRemoved, err = readList(rd, maxHeavyEntries, (*codec.Reader).U32); err != nil {
			return f, err
		}
		f.HeavyUpserts, err = readList(rd, maxHeavyEntries, readWeighted)
	default:
		err = fmt.Errorf("unknown frame kind %d", kind)
	}
	if err != nil {
		return f, err
	}
	return f, rd.Done()
}

func readDigest(rd *codec.Reader) (map[string]int64, error) {
	n, err := rd.Count(maxDigestEntries)
	if err != nil {
		return nil, err
	}
	d := make(map[string]int64, codec.UpfrontCap(n))
	for range n {
		id, err := readOrigin(rd)
		if err != nil {
			return nil, err
		}
		v, err := rd.Uvarint()
		if err != nil {
			return nil, err
		}
		d[id] = int64(v)
	}
	return d, nil
}

// readHead decodes the fields that open full and delta payloads: origin,
// version, the delta's base, and the model scale. Real learners keep the
// scale in (0, 1] via renormalization, so a non-positive one marks a
// corrupt or hostile frame (F64 already rejects non-finite values).
func readHead(rd *codec.Reader, f *Frame) error {
	var err error
	if f.Origin, err = readOrigin(rd); err != nil {
		return err
	}
	v, err := rd.Uvarint()
	if err != nil {
		return err
	}
	f.Version = int64(v)
	if f.Kind == kindDelta {
		b, err := rd.Uvarint()
		if err != nil {
			return err
		}
		f.Base = int64(b)
	}
	if f.Scale, err = rd.F64(); err != nil {
		return err
	}
	if f.Scale <= 0 {
		return fmt.Errorf("corrupt model scale %g", f.Scale)
	}
	return nil
}

// readSketch decodes the sketch's own (hardened) serialization from the
// rest of the payload. ReadCountSketch reads through a bufio.Reader, which
// may read ahead: the bytes it consumed are those neither the bufio.Reader
// nor the bytes.Reader still holds, and whatever follows stays in rd for
// Done to reject.
func readSketch(rd *codec.Reader) (*sketch.CountSketch, error) {
	rest := rd.Rest()
	pr := bytes.NewReader(rest)
	br := bufio.NewReader(pr)
	cs, err := sketch.ReadCountSketch(br)
	if err != nil {
		return nil, err
	}
	rd.Skip(len(rest) - pr.Len() - br.Buffered())
	return cs, nil
}

// readChanges decodes a delta's gap-encoded, strictly ascending bucket
// changes.
func readChanges(rd *codec.Reader) ([]sketch.BucketChange, error) {
	n, err := rd.Count(maxChangeEntries)
	if err != nil {
		return nil, err
	}
	out := make([]sketch.BucketChange, 0, codec.UpfrontCap(n))
	prev := uint64(0)
	for i := range n {
		gap, err := rd.Uvarint()
		if err != nil {
			return nil, err
		}
		if i > 0 && gap == 0 {
			return nil, fmt.Errorf("non-ascending change index at %d", i)
		}
		// Compared before adding, so a huge gap cannot wrap past zero.
		if gap > math.MaxUint32-prev {
			return nil, fmt.Errorf("change index %d+%d overflows", prev, gap)
		}
		val, err := rd.F64()
		if err != nil {
			return nil, err
		}
		prev += gap
		out = append(out, sketch.BucketChange{Index: uint32(prev), Value: val})
	}
	return out, nil
}

// readList decodes a count bounded by limit, then that many elements.
func readList[T any](rd *codec.Reader, limit int, elem func(*codec.Reader) (T, error)) ([]T, error) {
	n, err := rd.Count(limit)
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, codec.UpfrontCap(n))
	for range n {
		v, err := elem(rd)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// frameWireSize is the encoded size of a frame with the given payload
// length: kind byte, uvarint length prefix, payload, CRC32 trailer.
func frameWireSize(payloadLen int) int64 {
	var buf [binary.MaxVarintLen64]byte
	return int64(1 + binary.PutUvarint(buf[:], uint64(payloadLen)) + payloadLen + 4)
}

func appendOrigin(dst []byte, s string) ([]byte, error) {
	if len(s) == 0 || len(s) > maxOriginLen {
		return dst, fmt.Errorf("origin length %d out of range [1,%d]", len(s), maxOriginLen)
	}
	return append(codec.AppendUvarint(dst, uint64(len(s))), s...), nil
}

func readOrigin(rd *codec.Reader) (string, error) {
	n, err := rd.Count(maxOriginLen)
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", fmt.Errorf("empty origin")
	}
	b, err := rd.Bytes(n)
	return string(b), err
}

func appendWeighted(dst []byte, ws []stream.Weighted) []byte {
	dst = codec.AppendUvarint(dst, uint64(len(ws)))
	for _, w := range ws {
		dst = codec.AppendUvarint(dst, uint64(w.Index))
		dst = codec.AppendF64(dst, w.Weight)
	}
	return dst
}

// readWeighted decodes one heavy-list entry.
func readWeighted(rd *codec.Reader) (stream.Weighted, error) {
	k, err := rd.U32()
	if err != nil {
		return stream.Weighted{}, err
	}
	w, err := rd.F64()
	return stream.Weighted{Index: k, Weight: w}, err
}
