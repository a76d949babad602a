// Package cpuid reports, once per process, which optional x86-64 vector
// extensions the CPU and operating system run, so every package with an
// assembly kernel reads one check. In builds without the amd64 assembly
// (another architecture, or -tags purego) each flag is the constant false,
// and the kernels' call sites compile away.
package cpuid
