//go:build !linux

package pagestore

// MmapSupported reports whether this platform maps store files for reads.
// On non-Linux builds every page read takes the pread path.
const MmapSupported = false

// withView returns f unchanged: there is no read view on this platform.
func withView(f osFile) File { return f }
