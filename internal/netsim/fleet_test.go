package netsim

import (
	"slices"
	"testing"

	"github.com/relay-networks/privaterelay/internal/bgp"
)

// TestIngressFleetMatchesBuild pins the dense fleet array: for every
// operator, month, plane, family and phase, IngressFleet must return
// what buildIngressFleet computes from the pools — from the array for
// phase 0 of a scan month, computed on demand otherwise. May 2022 is
// not a scan month, and ASCloudflare runs no ingress fleet.
func TestIngressFleetMatchesBuild(t *testing.T) {
	w := testWorld(t)
	months := append(slices.Clone(ScanMonths), bgp.Month{Year: 2022, M: 5})
	for _, as := range []bgp.ASN{ASApple, ASAkamaiPR, ASCloudflare} {
		for _, month := range months {
			for _, proto := range []Proto{ProtoDefault, ProtoFallback} {
				for _, fam := range []Family{FamilyV4, FamilyV6} {
					for _, phase := range []int{0, 1, 3} {
						got := w.IngressFleet(as, month, proto, fam, phase)
						want := w.buildIngressFleet(as, month, proto, fam, phase)
						if !slices.Equal(got, want) {
							t.Fatalf("%v %v %v %v phase %d: IngressFleet has %d addresses, build has %d",
								ASName(as), month, proto, fam, phase, len(got), len(want))
						}
						if _, prebuilt := fleetIndex(as, month, proto, fam); prebuilt != (as != ASCloudflare && month.M != 5) {
							t.Fatalf("%v %v %v %v: fleetIndex reports prebuilt=%v", ASName(as), month, proto, fam, prebuilt)
						}
					}
				}
			}
		}
	}
}

// TestClientIndexFindsEveryClientAS checks the run arithmetic against
// the ClientASes slice itself, at both edges of every serve group.
func TestClientIndexFindsEveryClientAS(t *testing.T) {
	w := testWorld(t)
	for i, c := range w.ClientASes {
		if got, ok := w.clientIndex(c.ASN); !ok || got != i {
			t.Fatalf("clientIndex(%d) = %d, %v; want %d", c.ASN, got, ok, i)
		}
	}
	for _, r := range w.clientRuns {
		for _, as := range []bgp.ASN{r.base - 1, r.base + bgp.ASN(r.count)} {
			if _, ok := w.clientIndex(as); ok {
				t.Fatalf("clientIndex(%d) found a client outside every run", as)
			}
		}
	}
	for _, as := range []bgp.ASN{0, ASApple, ASAkamaiPR, ASCloudflare} {
		if _, ok := w.clientIndex(as); ok {
			t.Fatalf("clientIndex(%d) found a client", as)
		}
	}
}
