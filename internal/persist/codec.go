// Byte-level codec helpers shared by the snapshot implementations of
// the queue packages. Everything is little-endian and length-prefixed;
// Dec accumulates its first error so callers check once at the end.

package persist

import (
	"encoding/binary"
	"fmt"
)

// Enc builds a snapshot payload. The zero value is ready to use.
type Enc struct{ B []byte }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.B = append(e.B, v) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// Bytes appends a uint32 length prefix followed by the bytes.
func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.B = append(e.B, b...)
}

// Dec consumes a snapshot payload. The first decode past the end (or
// with an impossible length) latches an error; subsequent reads return
// zero values so decoders stay linear and check Err once.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec wraps a payload for decoding.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// fail latches the first decode error.
func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("persist: "+format, args...)
	}
}

// take returns the next n bytes, or nil after latching an error.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) || d.off+n < d.off {
		d.fail("snapshot payload truncated at offset %d (need %d of %d bytes)", d.off, n, len(d.b)-d.off)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a boolean (any nonzero is true).
func (d *Dec) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Bytes reads a uint32-length-prefixed byte slice (aliasing the
// payload; copy if retained).
func (d *Dec) Bytes() []byte {
	n := int(d.U32())
	return d.take(n)
}

// Len reads a uint32 length and validates it against an inclusive
// upper bound, so corrupt lengths fail cleanly instead of driving huge
// allocations.
func (d *Dec) Len(max int) int {
	n := int(d.U32())
	if d.err == nil && (n < 0 || n > max) {
		d.fail("snapshot length %d out of range [0,%d]", n, max)
		return 0
	}
	return n
}

// Remaining returns the number of payload bytes not yet consumed.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// Err returns the latched decode error, if any.
func (d *Dec) Err() error { return d.err }

// Done returns the latched error, or an error if payload bytes remain
// unconsumed (a version/shape mismatch symptom).
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("persist: snapshot payload has %d trailing bytes", len(d.b)-d.off)
	}
	return nil
}
