package ledger

// chunkSize is the element count of every full chunk of a chunked
// store: 4,096 records (256 KiB) or index nodes (128 KiB).
const chunkSize = 4096

// chunked is an append-only sequence held in fixed-size chunks. It
// backs the ledger's record store and every level of its Merkle index.
// A full chunk is never copied or reallocated, so a long ledger grows
// without copying its history; only the first chunk grows by doubling,
// so a twenty-record ledger pays for twenty records per level, not for
// a whole chunk.
type chunked[T any] struct {
	// chunks holds the allocated chunks: every one is chunkSize long
	// except possibly the first. Elements at n and beyond are zero.
	chunks [][]T
	n      uint64
}

// at returns element i, which must exist.
func (c *chunked[T]) at(i uint64) *T {
	return &c.chunks[i/chunkSize][i%chunkSize]
}

// push appends v.
func (c *chunked[T]) push(v T) {
	k, j := c.n/chunkSize, c.n%chunkSize
	if k == uint64(len(c.chunks)) || j == uint64(len(c.chunks[k])) {
		c.extend()
	}
	c.chunks[k][j] = v
	c.n++
}

// extend makes room for element n: a new chunk, or a doubled first one.
func (c *chunked[T]) extend() {
	if len(c.chunks) == 0 {
		c.chunks = append(c.chunks, make([]T, 16))
		return
	}
	if first := c.chunks[0]; len(first) < chunkSize {
		c.chunks[0] = make([]T, min(2*len(first), chunkSize))
		copy(c.chunks[0], first)
		return
	}
	c.chunks = append(c.chunks, make([]T, chunkSize))
}

// reserve allocates room for n elements in an empty store, so the
// first n appends allocate nothing. It replaces any earlier
// reservation, so the last one wins.
func (c *chunked[T]) reserve(n uint64) {
	c.chunks = c.chunks[:0]
	for k := uint64(0); k*chunkSize < n; k++ {
		size := uint64(chunkSize)
		if k == 0 {
			size = min(n, chunkSize)
		}
		c.chunks = append(c.chunks, make([]T, size))
	}
}
