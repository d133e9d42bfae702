// Command mssim runs a bare program on the cycle-level BOOM simulator
// and prints execution statistics — the substrate without the analysis.
//
// Usage:
//
//	mssim program.s
//	mssim -config small -max-cycles 1000000 program.s
package main

import (
	"flag"
	"fmt"
	"os"

	"microsampler/internal/asm"
	"microsampler/internal/sim"
	"microsampler/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mssim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mssim", flag.ContinueOnError)
	config := fs.String("config", "mega", "core configuration: mega or small")
	maxCycles := fs.Int64("max-cycles", 50_000_000, "cycle budget")
	fastBypass := fs.Bool("fast-bypass", false, "enable the fast-bypass optimisation")
	showVersion := fs.Bool("version", false, "print the version and build provenance, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Println(version.Get().Line("mssim"))
		return nil
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mssim [-config mega|small] program.s")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		return err
	}

	cfg, err := sim.ConfigByName(*config)
	if err != nil {
		return err
	}
	cfg.FastBypass = *fastBypass

	m, err := sim.New(cfg)
	if err != nil {
		return err
	}
	if err := m.LoadProgram(prog); err != nil {
		return err
	}
	res, err := m.Run(*maxCycles)
	if len(res.Output) > 0 {
		os.Stdout.Write(res.Output)
	}
	if err != nil {
		return err
	}
	fmt.Printf("exit %d after %d cycles, %d instructions (IPC %.2f), %d/%d branches mispredicted\n",
		res.ExitCode, res.Cycles, res.Instructions, res.IPC(),
		res.Mispredicts, res.Branches)
	fmt.Printf("D-cache: %d hits, %d misses; %d TLB misses; %d prefetches\n",
		res.DCacheHits, res.DCacheMisses, res.TLBMisses, res.Prefetches)
	return nil
}
