// Forwarding header, kept because perfbench includes it by name: the
// sharded front-end is concurrent_sampler.h.
#include "ats/core/concurrent_sampler.h"
