//go:build !linux || race

package mempool

import "errors"

// mapSlab: the frame slab is Go heap. Under the race detector it must
// be (it watches only the Go heap and data segments), and off Linux the
// pool does not map memory.
const mapSlab = false

func mapAnon(int) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapAnon([]byte) {}
