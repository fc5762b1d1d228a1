package core

import "context"

// Tick runs housekeeping tick n (from 1), as StartScheduler's ticker
// would, for the tests outside the package: they step the tick themselves
// instead of waiting for a ticker.
func (c *CAS) Tick(ctx context.Context, n int) { c.housekeep(ctx, n) }
