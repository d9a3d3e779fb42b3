package campaign

// Subscribers returns the number of live subscriptions: the handle the SSE
// lifecycle tests watch to prove a disconnected client's subscription is
// reclaimed.
func (b *Broker) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}
