// Command quicprobe reproduces the §3 ingress probing over a real UDP
// socket with two probes: the ZMap-style version-negotiation probe
// (answered) and the QScanner/curl-style standard handshake (silence).
// The third probe, the proprietary relay handshake the ingress
// accepts, runs in-process via quicsim.RelayHandshakeProbe, which only
// experiments.QUICProbes (cmd/report) calls.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/relay-networks/privaterelay/internal/quicsim"
)

func main() {
	timeout := flag.Duration("timeout", time.Second, "probe timeout (the silence window)")
	flag.Parse()

	ep, err := quicsim.ListenUDP("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ep.Close()
	addr := ep.Addr().String()
	fmt.Printf("ingress endpoint on %s\n\n", addr)

	dcid := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	scid := []byte{9, 10, 11, 12}

	// 1. ZMap module: force version negotiation.
	vnProbe, err := quicsim.BuildInitial(quicsim.VersionForceNegotiation, dcid, scid, []byte("zmap-probe"))
	if err != nil {
		log.Fatal(err)
	}
	resp, err := quicsim.ProbeUDP(addr, vnProbe, *timeout)
	if err != nil {
		log.Fatal(err)
	}
	if resp == nil {
		fmt.Println("version probe: silence (unexpected)")
	} else {
		versions, err := quicsim.ParseVersionNegotiation(resp, dcid, scid)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("version probe: VN received, supported versions:")
		for _, v := range versions {
			fmt.Printf(" %#x", v)
		}
		fmt.Println("\n  → QUICv1 alongside drafts 29–27, as the paper observed")
	}

	// 2. QScanner / curl: standards-conforming handshake.
	std, err := quicsim.BuildInitial(quicsim.VersionV1, dcid, scid, []byte("tls13-client-hello"))
	if err != nil {
		log.Fatal(err)
	}
	resp, err = quicsim.ProbeUDP(addr, std, *timeout)
	if err != nil {
		log.Fatal(err)
	}
	if resp == nil {
		fmt.Println("standard handshake: timed out — no QUIC initial, no error (paper: same)")
	} else {
		fmt.Printf("standard handshake: unexpectedly answered (%d bytes)\n", len(resp))
	}
}
