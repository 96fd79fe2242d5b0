//go:build !linux || race

package offheap

import "errors"

// enabled: nothing is mapped, and every caller takes heap memory. Under
// the race detector it must be (it watches only the Go heap and data
// segments), and off Linux this package does not map memory.
const enabled = false

func mapAnon(int, bool) (full, mem []byte, err error) { return nil, nil, errors.ErrUnsupported }

func unmap([]byte) {}
