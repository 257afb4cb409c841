//go:build race

package softpipe

// Under the race detector sync.Pool drops a share of what is put back,
// so a compile's scratch is allocated again more often: k18 makes about
// 1.4 times the allocations it makes without the detector.
func init() { raceAllocSlack = 1.5 }
