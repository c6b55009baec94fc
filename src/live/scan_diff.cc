#include "live/scan_diff.hh"

#include "util/fault.hh"

namespace dsearch {

namespace {

/** Depth-first walk; returns false when "live.scan" fires. */
bool
walk(const FileSystem &fs, const std::string &dir, ScanSnapshot &out)
{
    if (faultFires("live.scan"))
        return false;
    for (const DirEntry &entry : fs.list(dir)) {
        std::string path = joinPath(dir, entry.name);
        if (entry.is_dir) {
            if (!walk(fs, path, out))
                return false;
        } else {
            // Walk order is almost path order (only a name sorting
            // between "d" and "d/..." breaks it): the end is a good hint.
            out.emplace_hint(out.end(), std::move(path),
                             FileState{entry.size, entry.mtime});
        }
    }
    return true;
}

} // namespace

bool
scanFileSystem(const FileSystem &fs, const std::string &root,
               ScanSnapshot &out)
{
    out.clear();
    return walk(fs, root.empty() ? "/" : root, out);
}

ScanDiff
diffScans(const ScanSnapshot &prev, const ScanSnapshot &next)
{
    ScanDiff diff;
    auto p = prev.begin();
    auto n = next.begin();
    while (p != prev.end() || n != next.end()) {
        if (p == prev.end()) {
            diff.created.push_back(n->first);
            ++n;
        } else if (n == next.end()) {
            diff.deleted.push_back(p->first);
            ++p;
        } else if (p->first < n->first) {
            diff.deleted.push_back(p->first);
            ++p;
        } else if (n->first < p->first) {
            diff.created.push_back(n->first);
            ++n;
        } else {
            const FileState &a = p->second;
            const FileState &b = n->second;
            // Size change always counts; mtime change only when both
            // scans actually carry a stamp (0 = untracked/unknown).
            bool modified = a.size != b.size
                || (a.mtime != 0 && b.mtime != 0
                    && a.mtime != b.mtime);
            if (modified)
                diff.modified.push_back(n->first);
            ++p;
            ++n;
        }
    }
    return diff;
}

ScanSnapshot
baselineFromDocTable(const DocTable &docs)
{
    ScanSnapshot base;
    // Walk ids in order; insert_or_assign makes the newest id per
    // path win, matching the serving rule that a re-added path's
    // older DocIds are tombstoned.
    for (DocId doc = 0; doc < docs.docCount(); ++doc)
        base.insert_or_assign(docs.path(doc),
                              FileState{docs.sizeBytes(doc), 0});
    return base;
}

} // namespace dsearch
