// Fixture: the one renderer may emit the "timing" key
// (fingerprint-safety rule 1 stays quiet here).
#include <string>

std::string
Report::toJson() const
{
    std::string out = "{";
    out += "  \"timing\": {}";  // OK: report.cc is the renderer.
    return out;
}
