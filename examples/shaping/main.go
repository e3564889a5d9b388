// Shaping: non-work-conserving scheduling the PIFO way (the paper's
// Section 2.1: Token Bucket as a rank function). Ranks are departure
// times, and the PIFO block's gated dequeue holds the head until its
// time arrives.
//
//	go run ./examples/shaping
package main

import (
	"fmt"
	"log"

	bmw "repro"
)

func main() {
	// Flow 1 shaped to 1 MB/s with no burst; three back-to-back 10 kB
	// packets must leave 10 ms apart.
	tb := bmw.NewTokenBucket(1_000_000, 0)
	block := bmw.NewPIFOBlock(bmw.NewBMWTree(2, 6), tb)
	for i := 0; i < 3; i++ {
		if err := block.Enqueue(bmw.Packet{Flow: 1, Bytes: 10_000, Arrival: 0}, i); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("token-bucket ranks over a PIFO block (1 MB/s, 10 kB packets):")
	for now := uint64(0); now <= 25e6; now += 5e6 { // step 5 ms
		for {
			p, payload, err := block.DequeueEligible(now)
			if err != nil {
				break
			}
			fmt.Printf("  t=%2d ms: packet %v of flow %d released\n", now/1e6, payload, p.Flow)
		}
	}
}
