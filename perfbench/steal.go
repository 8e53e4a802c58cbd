package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// On a shared virtual machine the hypervisor runs other tenants on our
// CPUs; the time this takes ("steal") only ever lengthens round trips. A
// stealWatch reads the machine's cumulative steal every stealWindow during
// the timed phase. The latency metrics count only the calm windows, the
// calmShare of windows with the least steal, so a burst of steal does not
// move them; the per-layer metrics and counters use the whole phase.
const (
	stealWindow = 100 * time.Millisecond
	calmShare   = 0.5
)

type stealWatch struct {
	at    []time.Time // reading times; window i is [at[i], at[i+1])
	steal []float64   // cumulative steal seconds at each reading
	keep  []bool      // per window: calm
	quit  chan struct{}
	done  chan struct{}
}

func watchSteal() *stealWatch {
	w := &stealWatch{quit: make(chan struct{}), done: make(chan struct{})}
	w.read()
	go func() {
		defer close(w.done)
		t := time.NewTicker(stealWindow)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				w.read()
			case <-w.quit:
				return
			}
		}
	}()
	return w
}

func (w *stealWatch) read() {
	w.at = append(w.at, time.Now())
	w.steal = append(w.steal, stealSeconds())
}

// stop ends the readings and picks the calm windows.
func (w *stealWatch) stop() {
	close(w.quit)
	<-w.done
	w.read()
	n := len(w.at) - 1
	steal := make([]float64, n)
	for i := range steal {
		steal[i] = w.windowSteal(i)
	}
	sorted := append([]float64(nil), steal...)
	sort.Float64s(sorted)
	// Windows tied with the cut-off are all kept, so a run without steal
	// keeps every window rather than an arbitrary half.
	cut := sorted[max(0, int(float64(n)*calmShare+0.5)-1)]
	w.keep = make([]bool, n)
	for i, s := range steal {
		w.keep[i] = s <= cut
	}
}

func (w *stealWatch) windowSteal(i int) float64 { return w.steal[i+1] - w.steal[i] }

// calm reports whether t falls in a calm window.
func (w *stealWatch) calm(t time.Time) bool {
	i := sort.Search(len(w.at), func(i int) bool { return w.at[i].After(t) }) - 1
	return w.keep[min(max(i, 0), len(w.keep)-1)]
}

func (w *stealWatch) calmSeconds() float64 {
	var s float64
	for i, k := range w.keep {
		if k {
			s += w.at[i+1].Sub(w.at[i]).Seconds()
		}
	}
	return s
}

func (w *stealWatch) calmSteal() float64 {
	var s float64
	for i, k := range w.keep {
		if k {
			s += w.windowSteal(i)
		}
	}
	return s
}

func (w *stealWatch) total() float64 { return w.steal[len(w.steal)-1] - w.steal[0] }

// stealSeconds reads the machine's cumulative steal time from /proc/stat
// (USER_HZ ticks, 100 per second on Linux); 0 where it is unavailable.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			ticks, _ := strconv.ParseFloat(fields[8], 64)
			return ticks / 100
		}
	}
	return 0
}
