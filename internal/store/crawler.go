package store

import (
	"errors"

	"hybridkv/internal/hybridslab"
	"hybridkv/internal/sim"
)

// This file implements memcached's LRU crawler: a background process that
// walks the recency lists at a fixed per-item cost and publishes the hot-key
// set. The store keeps no expiry, so the walk reclaims nothing; its cost and
// cadence are what time the hot-set publication.

// crawlItemCost is the CPU cost to examine one item during a crawl pass.
const crawlItemCost = 100 * sim.Nanosecond

// ErrCrawlerRunning is returned by StartCrawler when a crawler is already
// active on this store.
var ErrCrawlerRunning = errors.New("store: crawler already running")

// StartCrawler launches the LRU crawler: every interval it examines up to
// batch items per recency list, then distills
// the hot-key sketch into the published hot set. Call StopCrawler to
// terminate it (the simulation's Run drains only after all periodic
// processes stop). A second start while one is running returns
// ErrCrawlerRunning.
func (s *Store) StartCrawler(interval sim.Time, batch int) error {
	if s.crawlerStop != nil {
		return ErrCrawlerRunning
	}
	if interval <= 0 {
		interval = sim.Second
	}
	if batch <= 0 {
		batch = 100
	}
	s.crawlerStop = s.env.NewEvent()
	stop := s.crawlerStop
	s.env.Spawn("lru-crawler", func(p *sim.Proc) {
		for {
			if p.WaitTimeout(stop, interval) {
				return // stopped
			}
			s.crawlOnce(p, batch)
		}
	})
	return nil
}

// StopCrawler terminates the crawler after its current pass.
func (s *Store) StopCrawler() {
	if s.crawlerStop == nil {
		return
	}
	s.crawlerStop.Fire()
	s.crawlerStop = nil
}

// crawlOnce performs one crawl pass.
func (s *Store) crawlOnce(p *sim.Proc, batch int) {
	scanned := 0
	s.mgr.VisitLRU(batch, func(*hybridslab.Item) bool {
		scanned++
		return true
	})
	if scanned > 0 {
		p.Sleep(sim.Time(scanned) * crawlItemCost)
	}
	// The crawler doubles as the hot-set publisher: each pass distills the
	// access sketch into the digests clients receive on their next
	// directory query, then ages the sketch so the set tracks recent load.
	s.refreshHotSet()
}
