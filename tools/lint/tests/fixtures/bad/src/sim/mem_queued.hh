// Fixture: std::function in a memory backend, where completions
// travel as TimedCallback.
#include <functional>

struct Request
{
    std::function<void(unsigned long)> done;  // line 7: banned here.
};
