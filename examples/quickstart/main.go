// Quickstart: build a 4-SSD BIZA array, write and read through the block
// interface, and inspect the endurance counters that motivate the design.
package main

import (
	"bytes"
	"fmt"
	"log"

	"biza"
)

func main() {
	// A BIZA array over four simulated ZN540-class ZNS SSDs (RAID 5).
	arr, err := biza.New(biza.Options{StoreData: true, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("array: %s, %d x 4 KiB blocks (%.1f GiB usable)\n",
		arr.Kind(), arr.Blocks(), float64(arr.Blocks())*4096/(1<<30))

	// Random block writes — the interface compatibility the paper is
	// about: no sequential-write constraint reaches the caller.
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = 0x5a
	}
	for _, lba := range []int64{7, 99999, 12, 7, 7, 7} { // note the hot block
		if err := arr.WriteSync(lba, 1, payload); err != nil {
			log.Fatalf("write %d: %v", lba, err)
		}
	}
	got, err := arr.ReadSync(7, 1)
	if err != nil || !bytes.Equal(got, payload) {
		log.Fatalf("read back: %v", err)
	}

	// The repeated writes to block 7 were absorbed in the ZRWA: they
	// never reached flash.
	wa := arr.WriteAmp()
	fmt.Printf("user bytes:     %d\n", wa.UserBytes)
	fmt.Printf("flash data:     %d\n", wa.FlashDataBytes)
	fmt.Printf("flash parity:   %d\n", wa.FlashParityBytes)
	fmt.Printf("zrwa absorbed:  %d bytes\n", arr.AbsorbedBytes())
	fmt.Printf("virtual time:   %.2f ms\n", float64(arr.Now())/1e6)
}
