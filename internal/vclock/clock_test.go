package vclock

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestVirtualSleepAdvancesExactly(t *testing.T) {
	c := NewVirtualClock()
	start := c.Now()
	ctx := context.Background()
	for _, d := range []time.Duration{time.Nanosecond, 3 * time.Second, 90 * time.Minute} {
		before := c.Now()
		if err := c.Sleep(ctx, d); err != nil {
			t.Fatal(err)
		}
		if got := c.Now().Sub(before); got != d {
			t.Fatalf("Sleep(%v) moved Now by %v", d, got)
		}
	}
	want := time.Nanosecond + 3*time.Second + 90*time.Minute
	if got := c.Elapsed(); got != want {
		t.Fatalf("Elapsed = %v, want %v", got, want)
	}
	if got := c.Now().Sub(start); got != want {
		t.Fatalf("Now moved %v in total, want %v", got, want)
	}
}

func TestVirtualSleepNonPositiveIsNoop(t *testing.T) {
	c := NewVirtualClock()
	start := c.Now()
	for _, d := range []time.Duration{0, -time.Second} {
		if err := c.Sleep(context.Background(), d); err != nil {
			t.Fatalf("Sleep(%v): %v", d, err)
		}
	}
	if c.Elapsed() != 0 || !c.Now().Equal(start) {
		t.Fatalf("non-positive sleeps moved the clock: elapsed %v", c.Elapsed())
	}
}

func TestVirtualSleepCancelledDoesNotAdvance(t *testing.T) {
	c := NewVirtualClock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on cancelled ctx = %v, want context.Canceled", err)
	}
	if c.Elapsed() != 0 {
		t.Fatalf("cancelled sleep advanced the clock by %v", c.Elapsed())
	}
}

func TestWallSleepReturnsEarlyOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- (WallClock{}).Sleep(ctx, time.Hour) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("WallClock.Sleep = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WallClock.Sleep did not return after cancel")
	}
}
