#include "backoff.hh"

#include <sys/wait.h>

#include <algorithm>

namespace looppoint {

const char *
failureClassName(FailureClass c)
{
    switch (c) {
      case FailureClass::Success:     return "success";
      case FailureClass::Degraded:    return "degraded";
      case FailureClass::Permanent:   return "permanent";
      case FailureClass::Transient:   return "transient";
      case FailureClass::Interrupted: return "interrupted";
    }
    return "unknown";
}

FailureClass
classifyWaitStatus(int wait_status)
{
    if (WIFEXITED(wait_status)) {
        switch (WEXITSTATUS(wait_status)) {
          case 0: return FailureClass::Success;
          case 1: return FailureClass::Degraded;
          case 2: return FailureClass::Permanent;
          case 3: return FailureClass::Transient;
          case 4: return FailureClass::Interrupted;
          default: return FailureClass::Permanent;
        }
    }
    // Signal deaths (including watchdog SIGKILL and OOM kills) and any
    // stop/continue state we did not ask for: retryable.
    return FailureClass::Transient;
}

double
BackoffPolicy::delaySeconds(uint32_t retry) const
{
    const double cap = std::max(0.0, capSeconds);
    double delay = std::max(0.0, baseSeconds);
    for (uint32_t i = 0; i < retry && delay < cap; ++i)
        delay *= 2.0;
    return std::min(delay, cap);
}

} // namespace looppoint
