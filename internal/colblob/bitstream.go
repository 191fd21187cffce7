package colblob

// Bit-level packing for sub-byte fields — the journal record codec
// packs 52-bit float mantissas and 4-bit exponent deltas without byte
// padding between them. Bits are packed LSB-first: the first bit
// written lands in bit 0 of the first byte, so streams are
// byte-order-independent and a reader consuming the same widths in the
// same order reproduces the values exactly.

// BitWriter accumulates bit fields into a byte slice.
type BitWriter struct {
	buf   []byte
	acc   uint64
	nbits uint
}

// NewBitWriter starts a bit stream appending to dst (may be nil).
func NewBitWriter(dst []byte) *BitWriter { return &BitWriter{buf: dst} }

// WriteBits appends the low n bits of v (n ≤ 64).
func (w *BitWriter) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	// The accumulator holds < 8 pending bits between calls, so up to 56
	// bits fit in one shift; wider writes split.
	if w.nbits+n > 64 {
		half := 32
		w.WriteBits(v, uint(half))
		w.WriteBits(v>>half, n-uint(half))
		return
	}
	w.acc |= v << w.nbits
	w.nbits += n
	for w.nbits >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.nbits -= 8
	}
}

// Bytes flushes the final partial byte (zero-padded) and returns the
// accumulated stream.
func (w *BitWriter) Bytes() []byte {
	if w.nbits > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc, w.nbits = 0, 0
	}
	return w.buf
}

// BitReader consumes bit fields written by BitWriter.
type BitReader struct {
	src   []byte
	pos   int
	acc   uint64
	nbits uint
}

// NewBitReader reads a bit stream from src.
func NewBitReader(src []byte) *BitReader { return &BitReader{src: src} }

// ReadBits consumes the next n bits (n ≤ 64); it errors once the
// stream is exhausted.
func (r *BitReader) ReadBits(n uint) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	if r.nbits+n > 64 && n > 32 {
		lo, err := r.ReadBits(32)
		if err != nil {
			return 0, err
		}
		hi, err := r.ReadBits(n - 32)
		if err != nil {
			return 0, err
		}
		return lo | hi<<32, nil
	}
	for r.nbits < n {
		if r.pos >= len(r.src) {
			return 0, corruptf("bitstream: exhausted")
		}
		r.acc |= uint64(r.src[r.pos]) << r.nbits
		r.pos++
		r.nbits += 8
	}
	v := r.acc
	if n < 64 {
		v &= (1 << n) - 1
	}
	r.acc >>= n
	r.nbits -= n
	return v, nil
}
