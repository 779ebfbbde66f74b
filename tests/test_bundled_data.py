"""The bundled tables are generated: rebuilding them from their scripts
must reproduce the committed files byte for byte."""

import build_published_data
import build_sthe_data


def test_the_scripts_rebuild_the_committed_tables():
    sthe = build_sthe_data.build()
    assert build_sthe_data.verify(sthe) == 0
    for script, data in ((build_sthe_data, sthe),
                         (build_published_data, build_published_data.build())):
        assert script.render(data).encode() == script.OUT.read_bytes(), script.OUT.name
