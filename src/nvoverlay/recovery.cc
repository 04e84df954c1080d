#include "nvoverlay/recovery.hh"

#include <sstream>

#include "common/log.hh"

namespace nvo
{

RecoveryManager::Result
RecoveryManager::recoverFiltered(bool tenant_only,
                                 tenant::Asid asid) const
{
    Result result;
    result.recEpoch = backend.recEpoch();
    result.image = std::make_unique<BackingStore>();

    constexpr Cycle nvmLineReadCycles = 510;
    constexpr Cycle tableStepCycles = 4;

    backend.forEachMasterEntry(
        [&](Addr line_addr, const MasterTable::Entry &entry) {
            if (tenant_only && tenant::asidOf(line_addr) != asid)
                return;
            nvo_assert(entry.epoch <= result.recEpoch,
                       "master maps a version beyond rec-epoch");
            LineData content;
            bool ok = backend.readMaster(line_addr, content);
            nvo_assert(ok);
            result.image->writeLine(line_addr, content);
            ++result.linesRestored;
            result.modelCycles += nvmLineReadCycles + tableStepCycles;
        });
    return result;
}

RecoveryManager::Result
RecoveryManager::recover() const
{
    return recoverFiltered(false, 0);
}

RecoveryManager::Result
RecoveryManager::recoverTenant(tenant::Asid asid) const
{
    return recoverFiltered(true, asid);
}

std::string
RecoveryManager::validateFiltered(const Result &result,
                                  const MnmBackend &backend,
                                  bool tenant_only, tenant::Asid asid)
{
    std::ostringstream err;
    std::uint64_t seen = 0;
    backend.forEachMasterEntry(
        [&](Addr line_addr, const MasterTable::Entry &entry) {
            if (tenant_only && tenant::asidOf(line_addr) != asid)
                return;
            ++seen;
            if (entry.epoch > result.recEpoch) {
                err << "line " << std::hex << line_addr
                    << " mapped at epoch " << std::dec << entry.epoch
                    << " > rec-epoch " << result.recEpoch << "; ";
                return;
            }
            LineData expect, got;
            backend.readMaster(line_addr, expect);
            result.image->readLine(line_addr, got);
            if (!(expect == got))
                err << "content mismatch at line " << std::hex
                    << line_addr << std::dec << "; ";
        });
    if (seen != result.linesRestored)
        err << "restored " << result.linesRestored << " of " << seen
            << " mapped lines; ";
    return err.str();
}

std::string
RecoveryManager::validate(const Result &result,
                          const MnmBackend &backend)
{
    return validateFiltered(result, backend, false, 0);
}

std::string
RecoveryManager::validateTenant(const Result &result,
                                const MnmBackend &backend,
                                tenant::Asid asid)
{
    return validateFiltered(result, backend, true, asid);
}

} // namespace nvo
