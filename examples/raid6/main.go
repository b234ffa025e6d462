// RAID 6: build a 5-SSD dual-parity BIZA array, fail two members, and
// read everything back through Reed-Solomon reconstruction — the paper's
// "our designs can also be applied to other RAID levels" claim, live.
package main

import (
	"bytes"
	"fmt"
	"log"

	"biza"
	"biza/internal/core"
)

func main() {
	engCfg := core.DefaultConfig(128)
	engCfg.Parity = 2
	arr, err := biza.New(biza.Options{
		Members:   5,
		Engine:    &engCfg,
		StoreData: true,
		Seed:      6,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RAID 6 array: 5 members, m=2, %.1f GiB usable\n",
		float64(arr.Blocks())*4096/(1<<30))

	pattern := func(lba int64) []byte {
		b := make([]byte, 4096)
		for i := range b {
			b[i] = byte(lba*7) ^ byte(i)
		}
		return b
	}
	const blocks = 64
	for lba := int64(0); lba < blocks; lba++ {
		if err := arr.WriteSync(lba, 1, pattern(lba)); err != nil {
			log.Fatalf("write %d: %v", lba, err)
		}
	}

	fmt.Println("failing members 1 and 3 simultaneously...")
	arr.SetDeviceFailed(1, true)
	arr.SetDeviceFailed(3, true)
	for lba := int64(0); lba < blocks; lba++ {
		got, err := arr.ReadSync(lba, 1)
		if err != nil {
			log.Fatalf("degraded read %d: %v", lba, err)
		}
		if !bytes.Equal(got, pattern(lba)) {
			log.Fatalf("block %d corrupted under double failure", lba)
		}
	}
	fmt.Printf("all %d blocks reconstructed under double failure\n", blocks)
	arr.SetDeviceFailed(1, false)
	arr.SetDeviceFailed(3, false)
	arr.Flush()
	wa := arr.WriteAmp()
	fmt.Printf("write amp: %.2f (data %.2f + parity %.2f)\n",
		wa.Factor(), wa.DataFactor(), wa.ParityFactor())
}
