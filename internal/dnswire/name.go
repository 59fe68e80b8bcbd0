package dnswire

import "strings"

// maxNameWire is the RFC 1035 limit on the wire form of a name.
const maxNameWire = 255

// appendName appends the wire encoding of name to buf. compress is the
// message's name→offset map: suffixes already emitted are replaced with
// compression pointers, and newly emitted suffixes are recorded. Offsets
// are relative to base (the message's start within buf); offsets beyond
// the 14-bit pointer range are never recorded.
func appendName(buf []byte, name string, compress map[string]int, base int) ([]byte, error) {
	name = CanonicalName(name)
	if name == "." {
		return append(buf, 0), nil
	}
	// Wire length check: presentation length + 1 is a close upper bound.
	if len(name)+1 > maxNameWire {
		return nil, ErrNameTooLong
	}
	// Walk labels in place: name is canonical ("a.b.c."), so every label
	// ends at a dot and name[i:] is exactly the suffix starting at label
	// i — usable directly as a compression-map key without allocating.
	for i := 0; i < len(name); {
		suffix := name[i:]
		if off, ok := compress[suffix]; ok {
			return append(buf, byte(0xC0|off>>8), byte(off)), nil
		}
		if off := len(buf) - base; off < 0x3FFF {
			compress[suffix] = off
		}
		j := strings.IndexByte(suffix, '.') // >= 0: canonical names end in '.'
		label := suffix[:j]
		if len(label) == 0 {
			return nil, ErrLabelTooLong // empty interior label is malformed
		}
		if len(label) > 63 {
			return nil, ErrLabelTooLong
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
		i += j + 1
	}
	return append(buf, 0), nil
}

// nameCacheSize bounds the per-decode name cache. Real responses repeat
// a handful of names (the question name dominates: every answer owner
// is a pointer to it), so a small linear-scan array beats a map — no
// hashing, no allocation, cache lives on the decoder's stack.
const nameCacheSize = 8

// nameCache memoizes decoded names within one message, keyed by the
// wire offset of the name's first label. Record owners in compressed
// responses are two-byte pointers at distinct offsets all aiming at the
// same target, so keying on the *target* turns every repeat into a
// zero-allocation lookup. The buf array doubles as the label assembly
// scratch, replacing the per-name strings.Builder; maxNameWire bounds
// it. The zero value is ready to use.
type nameCache struct {
	n    int
	off  [nameCacheSize]int32
	name [nameCacheSize]string
	buf  [maxNameWire]byte
}

func (c *nameCache) lookup(off int) (string, bool) {
	for i := 0; i < c.n; i++ {
		if c.off[i] == int32(off) {
			return c.name[i], true
		}
	}
	return "", false
}

func (c *nameCache) store(off int, name string) {
	if c.n < nameCacheSize {
		c.off[c.n] = int32(off)
		c.name[c.n] = name
		c.n++
	}
}

// decodeName decodes a possibly-compressed name starting at off in msg.
// It returns the canonical name and the offset just past the name's
// in-place encoding (pointers do not advance the cursor past their target).
func decodeName(msg []byte, off int) (string, int, error) {
	return decodeNameCached(msg, off, nil)
}

// decodeNameCached is decodeName with a per-message memo: a name that
// is (or starts with a pointer to) an already-decoded name costs no
// allocation; a fresh name costs exactly its one string allocation.
func decodeNameCached(msg []byte, off int, c *nameCache) (string, int, error) {
	key := off
	if c != nil && off+1 < len(msg) && msg[off]&0xC0 == 0xC0 {
		// The whole name is one pointer: resolve through the cache.
		key = int(msg[off]&0x3F)<<8 | int(msg[off+1])
		if name, ok := c.lookup(key); ok {
			return name, off + 2, nil
		}
	}
	var scratch []byte
	if c != nil {
		scratch = c.buf[:0]
	}
	ptrBudget := len(msg) // each pointer must strictly decrease; budget caps loops
	jumped := false
	end := off
	cur := off
	for {
		if cur >= len(msg) {
			return "", 0, ErrTruncatedMessage
		}
		b := msg[cur]
		switch {
		case b == 0:
			if !jumped {
				end = cur + 1
			}
			if len(scratch) == 0 {
				return ".", end, nil
			}
			name := string(scratch)
			if c != nil {
				c.store(key, name)
			}
			return name, end, nil
		case b&0xC0 == 0xC0:
			if cur+1 >= len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			target := int(b&0x3F)<<8 | int(msg[cur+1])
			if !jumped {
				end = cur + 2
			}
			jumped = true
			if target >= cur && ptrBudget == len(msg) {
				// First pointer must point backwards; forward pointers are
				// malformed and a reliable loop indicator.
				return "", 0, ErrPointerLoop
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return "", 0, ErrPointerLoop
			}
			cur = target
		case b&0xC0 != 0:
			return "", 0, ErrBadRData // 0x40/0x80 label types are unsupported
		default:
			if cur+1+int(b) > len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			if len(scratch)+int(b)+1 > maxNameWire {
				return "", 0, ErrNameTooLong
			}
			scratch = append(scratch, toLowerASCII(msg[cur+1:cur+1+int(b)])...)
			scratch = append(scratch, '.')
			if !jumped {
				end = cur + 1 + int(b)
			}
			cur += 1 + int(b)
		}
	}
}

// toLowerASCII lowercases ASCII letters without allocating when the input
// is already lowercase.
func toLowerASCII(b []byte) []byte {
	lower := true
	for _, c := range b {
		if c >= 'A' && c <= 'Z' {
			lower = false
			break
		}
	}
	if lower {
		return b
	}
	out := make([]byte, len(b))
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return out
}
