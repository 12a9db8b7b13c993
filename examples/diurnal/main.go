// diurnal: the paper's §2 "shifting resource consumption" scenario over
// a simulated 48 hours.
//
// A web service's cache follows the diurnal load curve: by day it wants
// its full working set; at night traffic drops and batch jobs scale up,
// reclaiming the now-cold cache memory through the daemon. The cache
// scales back up each morning. No process is ever killed; memory follows
// the work.
//
//	go run ./examples/diurnal
package main

import (
	"fmt"
	"log"
	"time"

	"softmem/internal/core"
	"softmem/internal/pages"
	"softmem/internal/sds"
	"softmem/internal/smd"
	"softmem/internal/trace"
)

const (
	machinePages = 5120 // 20 MiB machine, as in the paper's Figure 2
	keyspace     = 40000
	valueBytes   = 1024
	period       = 24 * time.Hour
)

func main() {
	machine := pages.NewPool(machinePages)
	daemon := smd.NewDaemon(smd.Config{TotalPages: machinePages})

	// The web service with its soft cache.
	webSMA := core.New(core.Config{Machine: machine})
	cache := sds.NewSoftHashTable[uint64](webSMA, "web-cache", sds.HashTableConfig[uint64]{
		Policy:   sds.EvictLRU,
		KeyBytes: func(uint64) int { return 48 },
	})
	webSMA.AttachDaemon(daemon.Register("web", webSMA))

	// The nightly batch fleet.
	batchSMA := core.New(core.Config{Machine: machine})
	batch := sds.NewSoftQueue(batchSMA, "batch-scratch", sds.BytesCodec{}, nil)
	batchSMA.AttachDaemon(daemon.Register("batch", batchSMA))

	keys := trace.NewZipfKeys(11, keyspace, 1.15)
	value := make([]byte, valueBytes)
	hits, misses := 0, 0

	// serveHour issues load-scaled traffic for one simulated hour.
	serveHour := func(load float64) {
		requests := int(8000 * load)
		for i := 0; i < requests; i++ {
			id := keys.Next()
			if _, ok, err := cache.Get(id); err != nil {
				log.Fatalf("cache get: %v", err)
			} else if ok {
				hits++
				continue
			}
			misses++
			if err := cache.Put(id, value); err != nil {
				log.Fatalf("cache put: %v", err)
			}
		}
	}

	// batchTarget scales the batch fleet's footprint to the inverse of
	// the web load: busy at night, idle by day.
	batchTarget := func(load float64) int {
		idleFrac := 1.0 - load
		return int(idleFrac * 0.7 * machinePages)
	}

	fmt.Println("48 simulated hours: memory follows the diurnal load")
	fmt.Println()
	fmt.Printf("%5s %6s %10s %12s %12s %9s\n", "hour", "load", "hitrate", "web(MiB)", "batch(MiB)", "evicted")
	for hour := 0; hour < 48; hour++ {
		load := trace.Diurnal(time.Duration(hour)*time.Hour, period, 0.15, 1.0)
		hits, misses = 0, 0
		serveHour(load)

		// Batch fleet scales toward its target.
		want := batchTarget(load)
		have := batchSMA.Stats().UsedPages
		if want > have {
			block := make([]byte, 4096)
			for i := have; i < want; i++ {
				if err := batch.Push(block); err != nil {
					break // machine saturated; the daemon said no
				}
			}
		} else {
			for i := want; i < have; i++ {
				if _, ok, _ := batch.Pop(); !ok {
					break
				}
			}
		}

		total := hits + misses
		hr := 0.0
		if total > 0 {
			hr = 100 * float64(hits) / float64(total)
		}
		if hour%3 == 0 {
			fmt.Printf("%5d %6.2f %9.1f%% %12.1f %12.1f %9d\n",
				hour, load, hr,
				float64(webSMA.FootprintBytes())/(1<<20),
				float64(batchSMA.FootprintBytes())/(1<<20),
				cache.Reclaimed())
		}
	}
	fmt.Println()
	fmt.Printf("web cache served %d demands without the service ever restarting\n",
		webSMA.Stats().DemandsServed)
}
