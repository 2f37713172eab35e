// Tracereplay: capture one kernel's L2 access stream and replay it into
// every L2 organization — the trace-driven methodology that lets a
// single expensive simulation answer many cache-design questions. The
// replay is exact: the live run's bank behaviour is reproduced
// bit-for-bit for the recording configuration.
//
// Run with: go run ./examples/tracereplay
package main

import (
	"bytes"
	"fmt"
	"log"

	"sttllc/internal/config"
	"sttllc/internal/sim"
	"sttllc/internal/trace"
	"sttllc/internal/workloads"
)

func main() {
	spec, _ := workloads.ByName("kmeans")
	spec = spec.Scale(0.25)

	// Record once, on the SRAM baseline.
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	live := sim.New(config.BaselineSRAM(), spec, sim.Options{
		TraceSink: func(r trace.Record) { _ = w.Append(r) },
	}).Run()
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	encodedBytes := buf.Len() // capture before ReadAll consumes the buffer
	recs, err := trace.ReadAll(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d L2 accesses from one %s run (%.1f KB encoded, %.1f bytes/access)\n\n",
		len(recs), spec.Name, float64(encodedBytes)/1024, float64(encodedBytes)/float64(len(recs)))

	// Replay into every organization in one pass over the stream.
	rec := &trace.Recording{Records: recs}
	fmt.Printf("%-16s %10s %10s %12s %12s\n", "config", "L2 hit", "LR share", "DRAM fills", "dyn energy")
	for _, r := range sim.ReplayMany(rec, config.All()) {
		fmt.Printf("%-16s %9.1f%% %9.1f%% %12d %9.3fuJ\n",
			r.Config, r.Bank.HitRate()*100, r.Bank.LRWriteShare()*100,
			r.Bank.DRAMFills, r.DynamicEnergyJ*1e6)
	}

	fmt.Printf("\nsanity: replay of the recording configuration reproduces the live run\n")
	rep := sim.ReplayMany(rec, []config.GPUConfig{config.BaselineSRAM()})[0]
	fmt.Printf("  live  hits=%d/%d energy=%.3fuJ\n",
		live.Bank.ReadHits+live.Bank.WriteHits, live.Bank.Reads+live.Bank.Writes, live.DynamicEnergyJ*1e6)
	fmt.Printf("  replay hits=%d/%d energy=%.3fuJ\n",
		rep.Bank.ReadHits+rep.Bank.WriteHits, rep.Bank.Reads+rep.Bank.Writes, rep.DynamicEnergyJ*1e6)
}
