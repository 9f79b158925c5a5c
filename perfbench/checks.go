package main

import "fmt"

// defaultSeed is the seed whose output digests are recorded below.
const defaultSeed = 1

// recordedDigests pins, for the default seed, the SHA-256 of each
// workload's rendered output: the campaign table and CSV for the fleet
// workloads, the %.17g rows for the sweep. A change that alters simulated
// behaviour changes these and fails the run.
var recordedDigests = map[string]string{
	"fleet-cold":        "49e240258287ef439a8b191904180eb3ced4b0646a62d198b5ac9a79ef0a5489",
	"sweep-all-schemes": "6369854b78e472c34938b4d0395304c412424ad4941bbbe133bcd070574195ce",
}

// digestCheck compares every call's output digest with the run's first
// call and, on the default seed, with the recorded digest.
type digestCheck struct {
	workload string
	seed     uint64
	first    string
}

// check returns "" when digest is right, or why it is wrong.
func (d *digestCheck) check(digest string) string {
	if d.first == "" {
		d.first = digest
	}
	if digest != d.first {
		return fmt.Sprintf("%s output digest %.16s differs from the run's first call (%.16s)", d.workload, digest, d.first)
	}
	if want := recordedDigests[d.workload]; d.seed == defaultSeed && digest != want {
		return fmt.Sprintf("%s output digest %s differs from the one recorded for seed %d (%s)", d.workload, digest, defaultSeed, want)
	}
	return ""
}
